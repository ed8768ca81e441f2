// Largest-allocation probe for the snapshot tests.
//
// alloc_probe.cpp replaces this test binary's scalar operator new (array
// forms forward to it) with a malloc forward that records the largest
// single request.  A decoder that sizes a container from an untrusted
// count shows up here as one huge request, long before it could exhaust
// memory — so "never over-allocates" becomes an assertion.
#pragma once

#include <cstddef>

namespace pfp::testing {

/// Forgets every request seen so far.
void reset_largest_allocation() noexcept;

/// Largest single operator-new request since the last reset, in bytes.
[[nodiscard]] std::size_t largest_allocation() noexcept;

}  // namespace pfp::testing
