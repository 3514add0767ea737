// Exact serial LSD radix sort for double samples — the one sort kernel
// behind every sorted sample in stats (Ecdf, MassCount).
//
// Each value is mapped to its IEEE-754 totalOrder key: a positive
// value's bit pattern with the sign bit flipped, a negative value's
// with every bit inverted. Unsigned order on those keys is the order of
// the doubles, so an 8-pass, 8-bit-digit LSD sort on the keys sorts the
// sample. A pass whose digit is the same in every key moves nothing and
// is skipped: integer-valued samples below 2^28 and float-derived ones
// have at least three all-zero low mantissa bytes, so they take at most
// five passes.
//
// Why the result equals a comparison sort byte for byte: under `<`,
// every class of equal non-NaN doubles is a single bit pattern except
// {+0.0, -0.0}, so any sort by `<` yields the same bytes unless a
// sample holds both signed zeros. Then this kernel puts -0.0 first,
// deterministically, where a comparison sort's order is unspecified.
// NaN has no place in `<` (std::sort with one is undefined behaviour);
// here it fails a check before any value moves.
#pragma once

#include <span>

namespace cgc::stats {

/// Sorts `values` ascending in place (totalOrder: -0.0 before +0.0).
/// Throws util::Error, leaving `values` untouched, if any value is NaN.
/// Serial; allocates one scratch array of values.size() doubles.
void radix_sort(std::span<double> values);

}  // namespace cgc::stats
