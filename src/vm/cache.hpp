/// \file cache.hpp
/// Identity-keyed cache of compiled bytecode. The key is the module's
/// process-unique serial (ir::Module::id) plus the compile options, so a
/// lookup costs a map probe, never a walk of the program. Content
/// addressing happens once, where text enters: serve's program registry
/// maps raw text and `@id` to one parsed module, so every resubmission
/// reaches the same module object and therefore the same entry; the CLI
/// parses one module per process. A module must not be mutated after it
/// has been looked up here — the entry would go stale. One process-wide
/// instance serves the CLI and the shot executor; the service gives each
/// daemon its own instance shared by every tenant (ShotOptions::cache
/// injects it into the executor).
///
/// Concurrency: lookups and insertions are mutex-guarded; compilation runs
/// outside the lock with *single-flight* deduplication — the first thread
/// to miss on a key registers an in-flight compile, and every concurrent
/// requester of the same key blocks on its future instead of compiling the
/// module again. N tenants running the same program therefore cost one
/// compile, not N (Stats::coalesced counts the joiners). A failed compile
/// propagates its exception to every joiner and leaves no entry behind, so
/// a later request retries from scratch.
///
/// The cache is bounded: once `capacity()` entries are resident, inserting
/// a new program evicts the least-recently-used entry (handed-out
/// shared_ptrs stay valid — eviction only drops the cache's reference).
/// Hits, misses, coalesced joins, and evictions are reported both in Stats
/// and through the telemetry counters vm.cache.{hits,misses,coalesced,
/// evictions}.
#pragma once

#include "ir/module.hpp"
#include "vm/bytecode.hpp"
#include "vm/compiler.hpp"

#include <compare>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace qirkit::vm {

class CompileCache {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Requests that joined another thread's in-flight compile of the same
    /// key instead of compiling (single-flight deduplication).
    std::uint64_t coalesced = 0;
  };

  /// Default resident-entry bound of the process-wide cache.
  static constexpr std::size_t kDefaultCapacity = 128;

  /// Look up \p module by identity; compile and insert on miss.
  /// Thread-safe; concurrent misses on the same key compile once (see file
  /// comment). The returned module is immutable and outlives the cache
  /// entry. \p options are part of the key, so the same module compiled
  /// with and without fusion occupies distinct entries.
  std::shared_ptr<const BytecodeModule>
  getOrCompile(const ir::Module& module, const CompileOptions& options = {});

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  /// Shrink/grow the resident bound (>= 1); shrinking evicts LRU entries
  /// immediately.
  void setCapacity(std::size_t capacity);
  void clear();

  /// The process-wide instance used by the CLI and the shot executor.
  static CompileCache& global();

private:
  using CompiledFuture =
      std::shared_future<std::shared_ptr<const BytecodeModule>>;

  struct Key {
    std::uint64_t moduleId;
    bool fuseGates;
    DispatchMode dispatch;
    bool superinstructions;
    auto operator<=>(const Key&) const = default;
  };

  struct Entry {
    std::shared_ptr<const BytecodeModule> compiled;
    std::uint64_t lastUse = 0; // tick of the most recent hit/insert
  };

  void evictLRULocked();

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  /// Compiles in progress: joiners block on the future while the owner
  /// compiles outside the lock.
  std::map<Key, CompiledFuture> inflight_;
  Stats stats_;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t tick_ = 0;
};

} // namespace qirkit::vm
