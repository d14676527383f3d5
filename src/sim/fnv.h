/**
 * @file
 * FNV-1a, the one copy of its offset basis and prime in the codebase.
 *
 * Three deterministic fingerprints fold into it: the event queue's
 * trace hash and the trace driver's config hash mix whole 64-bit words
 * (one FNV step per word), while the health timeline hash mixes bytes
 * (classic FNV-1a). Both mixes are the same step — xor, then multiply
 * by the prime — differing only in how wide the folded value is.
 * Header-only so the event queue's pop path keeps it inlined.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace sol::sim {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Folds one value (a byte, or a whole 64-bit word) into `hash`. */
constexpr std::uint64_t
FnvMix(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ value) * kFnvPrime;
}

/** Folds every byte of `bytes`, in order, into `hash`. */
constexpr std::uint64_t
FnvMixBytes(std::uint64_t hash, std::string_view bytes)
{
    for (const char c : bytes) {
        hash = FnvMix(hash, static_cast<unsigned char>(c));
    }
    return hash;
}

}  // namespace sol::sim
