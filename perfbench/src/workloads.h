// The benchmark's workloads. Each one generates its inputs from the
// benchmark seed through the public core::Session API, runs one "op" at a
// time, and checks every op against an oracle outside the timed region.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "spans.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;  ///< dense-square | sparse-common-dim | gnmf-gpu
  uint64_t seed = 1;
  bool smoke = false;  ///< tiny sizes for the self-test
};

/// \brief One multiplication an op runs, as Session handles to its operands.
struct OpMultiply {
  distme::core::Matrix a;
  distme::core::Matrix b;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// \brief The Session options the workload runs under: the defaults plus
  /// the workload's cluster, compute mode and prefetch depth.
  virtual distme::core::Session::Options SessionOptions() const = 0;

  /// \brief Generates the inputs in `session` (part of set-up).
  [[nodiscard]] virtual distme::Status Generate(
      distme::core::Session* session) = 0;

  /// \brief Runs one op. When `spans` is non-null, each Session call is
  /// wrapped in a "core.<call>" span tagged with `op_id`.
  [[nodiscard]] virtual distme::Status RunOp(distme::core::Session* session,
                                             SpanRecorder* spans,
                                             int64_t op_id) = 0;

  /// \brief Oracle for the op just run. `corrupt` perturbs one collected
  /// output element first, to show that the oracle catches it.
  virtual bool CheckOp(bool corrupt) = 0;

  /// \brief Oracle over the whole run, called once after the last op.
  virtual bool CheckRun() { return true; }

  /// \brief Useful flops of one op, counted from the generated inputs
  /// (2·m·n·k for dense operands, per-k non-zero products for sparse).
  virtual double UsefulFlopsPerOp() const = 0;

  /// \brief The multiplications of the most recent op.
  virtual std::vector<OpMultiply> LastOpMultiplies() const = 0;

  /// \brief Matrices for the element-wise/transpose replays: the factors for
  /// GNMF, the left operand otherwise.
  virtual std::vector<distme::core::Matrix> ElementWiseMatrices() const = 0;

  /// \brief Whether one op calls Session::Transpose/ElementWise itself.
  virtual bool OpHasTransposeAndElementWise() const = 0;
};

/// \brief Useful flops of A × B: 2 · Σ_k nnz(A[:,k]) · nnz(B[k,:]), which is
/// 2·m·n·k for dense operands.
double UsefulFlops(const distme::BlockGrid& a, const distme::BlockGrid& b);
double UsefulFlops(const distme::Block& a, const distme::Block& b);

/// \brief Builds the named workload; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config);

}  // namespace perfbench
