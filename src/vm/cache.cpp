#include "vm/cache.hpp"

#include "support/faultinject.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/compiler.hpp"

#include <algorithm>

namespace qirkit::vm {

namespace {

telemetry::Counter g_cacheHits{"vm.cache.hits"};
telemetry::Counter g_cacheMisses{"vm.cache.misses"};
telemetry::Counter g_cacheEvictions{"vm.cache.evictions"};
telemetry::Counter g_cacheCoalesced{"vm.cache.coalesced"};

} // namespace

std::shared_ptr<const BytecodeModule>
CompileCache::getOrCompile(const ir::Module& module, const CompileOptions& options) {
  fault::probe(fault::Site::CompileCache);
  const Key key{module.id(), options.fuseGates, options.dispatch,
                options.superinstructions};

  std::promise<std::shared_ptr<const BytecodeModule>> promise;
  CompiledFuture joined;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      g_cacheHits.add();
      it->second.lastUse = ++tick_;
      return it->second.compiled;
    }
    // Single-flight: join a compile already in progress for this key
    // rather than duplicating it.
    const auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
      ++stats_.coalesced;
      g_cacheCoalesced.add();
      joined = flight->second;
    } else {
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (joined.valid()) {
    // Blocks until the owning thread finishes; rethrows its compile error,
    // mirroring what compiling ourselves would have raised.
    return joined.get();
  }

  // Compile outside the lock — compilation is pure and may be slow; the
  // in-flight registration above keeps it from ever running twice.
  std::shared_ptr<const BytecodeModule> compiled;
  try {
    compiled = compileModule(module, options);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    // Wake the joiners with the same failure; nothing is cached, so the
    // next request retries the compile.
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    ++stats_.misses;
    g_cacheMisses.add();
    while (entries_.size() >= capacity_) {
      evictLRULocked();
    }
    entries_.emplace(key, Entry{compiled, ++tick_});
  }
  promise.set_value(compiled);
  return compiled;
}

void CompileCache::evictLRULocked() {
  const auto victim = std::min_element(
      entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
        return a.second.lastUse < b.second.lastUse;
      });
  if (victim == entries_.end()) {
    return;
  }
  entries_.erase(victim);
  ++stats_.evictions;
  g_cacheEvictions.add();
}

CompileCache::Stats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CompileCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t CompileCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void CompileCache::setCapacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (entries_.size() > capacity_) {
    evictLRULocked();
  }
}

void CompileCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = {};
  tick_ = 0;
}

CompileCache& CompileCache::global() {
  static CompileCache instance;
  return instance;
}

} // namespace qirkit::vm
