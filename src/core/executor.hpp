// A fork-join execution resource, borrowed by the adaptive sweep.
//
// Like LocalizerConfig::workspace, an executor only decides where work
// runs, never what it computes: every body index must write its own
// output, so the result of a parallel_for is the result of running the
// indices in order. engine::ThreadPool implements it; core itself never
// links the engine.
#pragma once

#include <cstddef>
#include <functional>

namespace lion::core {

class Executor {
 public:
  /// Run body(i) once for every i in [0, n) and return when all have
  /// finished. The calling thread runs indices too. Indices are claimed
  /// in ascending order, but may run concurrently on any thread. If
  /// bodies throw, every index still runs and the exception of the lowest
  /// throwing index is rethrown on the caller.
  virtual void parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& body) = 0;

 protected:
  // Callers borrow an executor; nobody owns or deletes one through this
  // interface.
  ~Executor() = default;
};

}  // namespace lion::core
