// Sequentiality classification (paper Table V): whole-file transfers and
// sequential accesses, broken down by access mode.

#ifndef BSDTRACE_SRC_ANALYSIS_SEQUENTIALITY_H_
#define BSDTRACE_SRC_ANALYSIS_SEQUENTIALITY_H_

#include <array>

#include "src/trace/reconstruct.h"

namespace bsdtrace {

struct ModeSequentiality {
  uint64_t accesses = 0;
  uint64_t whole_file = 0;
  uint64_t sequential = 0;
  uint64_t bytes = 0;
  uint64_t whole_file_bytes = 0;
  uint64_t sequential_bytes = 0;

  double WholeFileFraction() const {
    return accesses > 0 ? static_cast<double>(whole_file) / static_cast<double>(accesses) : 0;
  }
  double SequentialFraction() const {
    return accesses > 0 ? static_cast<double>(sequential) / static_cast<double>(accesses) : 0;
  }

  void Merge(const ModeSequentiality& other) {
    accesses += other.accesses;
    whole_file += other.whole_file;
    sequential += other.sequential;
    bytes += other.bytes;
    whole_file_bytes += other.whole_file_bytes;
    sequential_bytes += other.sequential_bytes;
  }
};

struct SequentialityStats {
  // Indexed by AccessMode.
  std::array<ModeSequentiality, 3> by_mode{};

  const ModeSequentiality& Mode(AccessMode mode) const {
    return by_mode[static_cast<size_t>(mode)];
  }
  ModeSequentiality Total() const;

  // Fractions over all bytes transferred (Table V's byte rows).
  double WholeFileByteFraction() const;
  double SequentialByteFraction() const;

  // Absorbs another segment's counters (parallel reduction).
  void Merge(const SequentialityStats& other) {
    for (size_t i = 0; i < by_mode.size(); ++i) {
      by_mode[i].Merge(other.by_mode[i]);
    }
  }
};

class SequentialityCollector final : public ReconstructionSink {
 public:
  void OnAccess(const AccessSummary& access) override;
  SequentialityStats Take() { return stats_; }

 private:
  SequentialityStats stats_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_SEQUENTIALITY_H_
