#include "dadu/service/queue.hpp"

#include <algorithm>
#include <utility>

namespace dadu::service {

BoundedQueue::BoundedQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

PushResult BoundedQueue::tryPush(Job&& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return PushResult::kClosed;
  if (jobs_.size() >= capacity_) return PushResult::kFull;
  jobs_.push_back(std::move(job));
  return PushResult::kAccepted;
}

bool BoundedQueue::tryPop(Job& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (jobs_.empty()) return false;
  out = std::move(jobs_.front());
  jobs_.pop_front();
  return true;
}

void BoundedQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
}

std::vector<Job> BoundedQueue::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Job> out;
  out.reserve(jobs_.size());
  while (!jobs_.empty()) {
    out.push_back(std::move(jobs_.front()));
    jobs_.pop_front();
  }
  return out;
}

std::size_t BoundedQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

bool BoundedQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace dadu::service
