// Fixture: C012 fires on an event counter kept beside the metrics
// registry in the planning service (matched by the serve/service.hpp
// path). A live level such as an in-flight count is not an event count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fixture {
inline std::atomic<std::uint64_t> submitted{0};  // line 11: event counter
inline std::atomic<uint64_t> rejected{0};        // line 12: same, unqualified
inline std::atomic<std::size_t> in_flight{0};    // a level: no finding
}  // namespace fixture
