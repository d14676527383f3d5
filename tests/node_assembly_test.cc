/**
 * @file
 * The shared node assembly, seen through both hosts.
 *
 * MultiAgentNode and ThreadedMultiAgentNode build their substrate,
 * agents, and registry through one NodeAssembly, so before either
 * starts they must describe the same node: same agents in the same
 * slot order, same registry entries, same metric namespaces. The node
 * parity suite runs synthetics only; this suite covers the real agents'
 * assembly too, with a mixed config (one real agent disabled, a few
 * synthetics, one of them customized).
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "cluster/threaded_multi_agent_node.h"
#include "sim/event_queue.h"

namespace sol::cluster {
namespace {

MultiAgentNodeConfig
MixedConfig()
{
    MultiAgentNodeConfig config;
    config.seed = 11;
    config.run_harvest = false;
    config.synthetic_agents = 3;
    config.customize_synthetic = [](std::size_t i,
                                    SyntheticAgentConfig& cfg) {
        if (i == 1) {
            cfg.name = "custom-synthetic";
            cfg.domain = core::ActuationDomain::kCpuFrequency;
        }
    };
    return config;
}

/** Metric namespaces (the part before the first '.') of every gauge
 *  and counter in `metrics`. */
std::set<std::string>
Namespaces(const telemetry::MetricRegistry& metrics)
{
    std::set<std::string> namespaces;
    const auto add = [&namespaces](const std::string& key) {
        namespaces.insert(key.substr(0, key.find('.')));
    };
    for (const auto& entry : metrics.gauges()) {
        add(entry.first);
    }
    for (const auto& entry : metrics.counters()) {
        add(entry.first);
    }
    return namespaces;
}

std::set<std::string>
GaugeKeys(const telemetry::MetricRegistry& metrics)
{
    std::set<std::string> keys;
    for (const auto& entry : metrics.gauges()) {
        keys.insert(entry.first);
    }
    return keys;
}

TEST(NodeAssembly, BothHostsAssembleTheSameMixedNode)
{
    sim::EventQueue queue;
    MultiAgentNode sim_node(queue, MixedConfig());
    ThreadedMultiAgentNode<> threaded_node(MixedConfig());

    const std::vector<std::string> expected = {
        agents::kSmartOverclockName, agents::kSmartMemoryName,
        agents::kSmartMonitorName,   "synthetic0",
        "custom-synthetic",          "synthetic2"};
    EXPECT_EQ(sim_node.agent_names(), expected);
    EXPECT_EQ(threaded_node.agent_names(), expected);
    EXPECT_EQ(sim_node.num_agents(), expected.size());
    EXPECT_EQ(threaded_node.num_agents(), expected.size());
    EXPECT_EQ(sim_node.num_synthetic_agents(), 3u);
    EXPECT_EQ(threaded_node.num_synthetic_agents(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sim_node.synthetic_agent(i).name(),
                  threaded_node.synthetic_agent(i).name());
    }

    EXPECT_EQ(sim_node.registry().Names(), threaded_node.registry().Names());
    EXPECT_EQ(sim_node.registry().size(), expected.size());
    EXPECT_FALSE(sim_node.registry().Contains(agents::kSmartHarvestName));
    EXPECT_FALSE(
        threaded_node.registry().Contains(agents::kSmartHarvestName));

    sim_node.CollectMetrics();
    threaded_node.CollectMetrics();
    std::set<std::string> expected_namespaces(expected.begin(),
                                              expected.end());
    expected_namespaces.insert("arbiter");
    expected_namespaces.insert("node");
    EXPECT_EQ(Namespaces(sim_node.metrics()), expected_namespaces);
    EXPECT_EQ(Namespaces(threaded_node.metrics()), expected_namespaces);
    EXPECT_EQ(GaugeKeys(sim_node.metrics()),
              GaugeKeys(threaded_node.metrics()));
    for (const std::string& name : expected) {
        EXPECT_EQ(sim_node.metrics().Gauge(name + ".epochs"), 0.0) << name;
        EXPECT_EQ(threaded_node.metrics().Gauge(name + ".epochs"), 0.0)
            << name;
    }
}

}  // namespace
}  // namespace sol::cluster
