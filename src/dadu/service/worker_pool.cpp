#include "dadu/service/worker_pool.hpp"

#include <stdexcept>

#include "dadu/service/ik_service.hpp"

namespace dadu::service {

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::attach(IkService& lane) {
  if (!threads_.empty())
    throw std::logic_error("WorkerPool::attach: pool already started");
  lanes_.push_back(&lane);
  size_ += lane.workerCount();
}

void WorkerPool::start() {
  if (lanes_.empty() || !threads_.empty()) return;
  threads_.reserve(size_);
  for (std::size_t w = 0; w < size_; ++w)
    threads_.emplace_back([this, w] { run(w); });
}

void WorkerPool::notify() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++signals_;
  }
  wake_.notify_one();
}

void WorkerPool::stop() {
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
}

bool WorkerPool::serveNext(Solvers& solvers, std::size_t& last) {
  const std::size_t n = lanes_.size();
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t lane = (last + k) % n;
    if (lanes_[lane]->serveOne(*solvers[lane])) {
      last = lane;
      return true;
    }
  }
  return false;
}

void WorkerPool::run(std::size_t worker) {
  Solvers solvers;
  solvers.reserve(lanes_.size());
  for (IkService* lane : lanes_) solvers.push_back(lane->makeSolver());

  // Stagger the first scan so workers start on different lanes.
  std::size_t last = (worker + lanes_.size() - 1) % lanes_.size();
  for (;;) {
    if (serveNext(solvers, last)) continue;
    // Every lane looked empty.  Read the notify count, then scan once
    // more: a push whose notify() came before the read is visible to
    // that scan, and one whose notify() comes after it moves the count
    // and so cannot be slept through.
    std::uint64_t seen = 0;
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen = signals_;
      stopping = stopping_;
    }
    if (serveNext(solvers, last)) continue;
    if (stopping) return;
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] { return stopping_ || signals_ != seen; });
  }
}

}  // namespace dadu::service
