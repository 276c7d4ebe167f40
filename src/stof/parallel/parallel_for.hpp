// OpenMP-style structured parallel loops over index ranges.
//
// parallel_for statically partitions [begin, end) into one contiguous chunk
// per worker — the deterministic schedule keeps simulated-kernel execution
// reproducible regardless of thread timing, because each index is always
// processed exactly once and results are written to disjoint locations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>

#include "stof/parallel/scratch.hpp"
#include "stof/parallel/thread_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof {

namespace detail {

/// Split [begin, end) into one contiguous chunk per worker (at most n) and
/// run `chunk(lo, hi)` for each on `pool`, or once over the whole range
/// inline when the pool has one worker or the range one index.  The first
/// exception any chunk throws is rethrown on the calling thread.
template <typename Chunk>
void run_chunks(std::int64_t begin, std::int64_t end, Chunk&& chunk,
                ThreadPool& pool) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  const std::int64_t workers =
      static_cast<std::int64_t>(pool.thread_count());
  if (workers <= 1 || n == 1) {
    chunk(begin, end);
    return;
  }

  const std::int64_t chunks = std::min(n, workers);
  const std::int64_t per = (n + chunks - 1) / chunks;

  std::mutex err_mutex;
  std::exception_ptr first_error;

  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t lo = begin + c * per;
    const std::int64_t hi = std::min(end, lo + per);
    if (lo >= hi) break;
    pool.submit([lo, hi, &chunk, &err_mutex, &first_error] {
      try {
        chunk(lo, hi);
      } catch (...) {
        std::scoped_lock lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

/// Apply `body(i)` for every i in [begin, end) using `pool`.
///
/// The body must write only to locations owned by index i (no
/// reductions).  Exceptions thrown by any body are captured and the first
/// one is rethrown on the calling thread.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                  ThreadPool& pool = ThreadPool::global()) {
  detail::run_chunks(
      begin, end,
      [&body](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) body(i);
      },
      pool);
}

/// parallel_for variant whose body receives a per-chunk ScratchArena:
/// `body(i, ScratchArena&)`.  The arena is reset before every body call and
/// its blocks are reused across all tasks of the chunk, so steady-state
/// tasks allocate nothing on the heap.  One arena per *chunk* (not per
/// thread) keeps the `exec.parallel.scratch_reuse_hits` telemetry counter
/// deterministic: the chunk partition depends only on (range, pool size),
/// never on which worker thread picks up which chunk.
template <typename Body>
void parallel_for_scratch(std::int64_t begin, std::int64_t end, Body&& body,
                          ThreadPool& pool = ThreadPool::global()) {
  detail::run_chunks(
      begin, end,
      [&body](std::int64_t lo, std::int64_t hi) {
        ScratchArena arena;
        for (std::int64_t i = lo; i < hi; ++i) {
          arena.reset();
          body(i, arena);
        }
        telemetry::count("exec.parallel.scratch_reuse_hits",
                         arena.reuse_hits());
      },
      pool);
}

}  // namespace stof
