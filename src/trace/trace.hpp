// In-memory trace container.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace pfp::trace {

/// An ordered sequence of block references plus identifying metadata.
/// Traces are value types; generators return them and the simulator reads
/// them through a span without copying.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}
  Trace(std::string name, std::vector<TraceRecord> records)
      : name_(std::move(name)), records_(std::move(records)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  const TraceRecord& operator[](std::size_t i) const { return records_[i]; }

  void push_back(TraceRecord record) { records_.push_back(record); }
  void append(BlockId block, StreamId stream = 0) {
    records_.push_back(TraceRecord{block, stream});
  }
  void reserve(std::size_t n) { records_.reserve(n); }
  void clear() { records_.clear(); }

  [[nodiscard]] std::span<const TraceRecord> records() const noexcept { return records_; }

  [[nodiscard]] auto begin() const noexcept { return records_.begin(); }
  [[nodiscard]] auto end() const noexcept { return records_.end(); }

  /// The referenced blocks in order, the form the engine replays.
  [[nodiscard]] std::vector<BlockId> blocks() const;

  /// Number of distinct blocks referenced (O(n) scan).
  [[nodiscard]] std::size_t unique_blocks() const;

  /// Keeps only the first n records (no-op if already shorter).
  void truncate(std::size_t n);

 private:
  std::string name_;
  std::vector<TraceRecord> records_;
};

}  // namespace pfp::trace
