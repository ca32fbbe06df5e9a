#include "workloads.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "blas/local_mm.h"
#include "core/gnmf.h"
#include "host.h"
#include "matrix/generator.h"

namespace perfbench {

using distme::BlockGrid;
using distme::DenseMatrix;
using distme::GeneratorOptions;
using distme::Status;
using distme::core::Matrix;
using distme::core::Session;

namespace {

// The 4 task slots of every workload: 2 simulated nodes × 2 threads, equal
// to the cores of the 4-vCPU host the sizes were chosen on.
Session::Options BaseOptions() {
  Session::Options options;
  options.cluster = distme::ClusterConfig::Local(2, 2);
  return options;
}

// Tolerance against a single-node recomputation, relative to the largest
// expected magnitude. Splitting a k-sum across tasks and aggregating the
// partials reorders it, so distributed results are not bitwise the
// single-node ones.
constexpr double kRelTolerance = 1e-10;

bool BitwiseEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.num_elements()) * sizeof(double)) ==
             0;
}

void Corrupt(DenseMatrix* m) { m->Add(0, 0, 1.0); }

// max |got − expect| ≤ kRelTolerance · max(1, max |expect|).
bool WithinTolerance(const DenseMatrix& got, const DenseMatrix& expect) {
  if (got.rows() != expect.rows() || got.cols() != expect.cols()) return false;
  double scale = 1.0;
  for (int64_t n = 0; n < expect.num_elements(); ++n) {
    scale = std::max(scale, std::fabs(expect.data()[n]));
  }
  return DenseMatrix::MaxAbsDiff(got, expect) <= kRelTolerance * scale;
}

// Calls fn(local_row, local_col, value) for every non-zero of a block.
template <typename Fn>
void ForEachNonZero(const distme::Block& block, Fn&& fn) {
  if (block.IsDense()) {
    const DenseMatrix& d = block.dense();
    for (int64_t r = 0; r < d.rows(); ++r) {
      for (int64_t c = 0; c < d.cols(); ++c) {
        if (d.At(r, c) != 0.0) fn(r, c, d.At(r, c));
      }
    }
    return;
  }
  const distme::CsrMatrix& s = block.sparse();
  for (int64_t r = 0; r < s.rows(); ++r) {
    for (int64_t p = s.row_ptr()[r]; p < s.row_ptr()[r + 1]; ++p) {
      fn(r, s.col_idx()[p], s.values()[p]);
    }
  }
}

// C = A × B, one Session::Multiply per op.
class MultiplyWorkload : public Workload {
 public:
  MultiplyWorkload(GeneratorOptions a, GeneratorOptions b, int prefetch_depth)
      : gen_a_(a),
        gen_b_(b),
        prefetch_depth_(prefetch_depth),
        flops_(UsefulFlops(distme::GenerateUniform(a),
                           distme::GenerateUniform(b))) {}

  Session::Options SessionOptions() const override {
    Session::Options options = BaseOptions();
    options.mode = distme::engine::ComputeMode::kCpu;
    options.real.prefetch_depth = prefetch_depth_;
    return options;
  }

  Status Generate(Session* session) override {
    DISTME_ASSIGN_OR_RETURN(a_, session->Generate(gen_a_));
    DISTME_ASSIGN_OR_RETURN(b_, session->Generate(gen_b_));
    return Status::OK();
  }

  Status RunOp(Session* session, SpanRecorder* spans, int64_t op_id) override {
    ScopedSpan span(spans, "core.multiply", op_id);
    DISTME_ASSIGN_OR_RETURN(c_, session->Multiply(a_, b_));
    return Status::OK();
  }

  bool CheckOp(bool corrupt) override {
    DenseMatrix got = c_.Collect().ToDense();
    if (corrupt) Corrupt(&got);
    if (first_.num_elements() > 0) return BitwiseEqual(got, first_);
    if (reference_.num_elements() == 0) {
      auto reference =
          distme::blas::LocalMultiply(distme::GenerateUniform(gen_a_),
                                      distme::GenerateUniform(gen_b_));
      if (!reference.ok()) return false;
      reference_ = reference->ToDense();
    }
    if (!WithinTolerance(got, reference_)) return false;
    first_ = std::move(got);
    return true;
  }

  double UsefulFlopsPerOp() const override { return flops_; }

  std::vector<OpMultiply> LastOpMultiplies() const override {
    return {{a_, b_}};
  }

  std::vector<Matrix> ElementWiseMatrices() const override { return {a_}; }
  bool OpHasTransposeAndElementWise() const override { return false; }

 private:
  GeneratorOptions gen_a_;
  GeneratorOptions gen_b_;
  int prefetch_depth_;
  double flops_;
  Matrix a_;
  Matrix b_;
  Matrix c_;
  DenseMatrix reference_;  // single-node product, built at the first check
  DenseMatrix first_;      // the first op's output, once it passed
};

// One GNMF iteration per op, through the same twelve Session calls
// core::RunGnmf makes, in the same order.
class GnmfWorkload : public Workload {
 public:
  GnmfWorkload(GeneratorOptions v, int64_t factor_dim, uint64_t seed)
      : gen_v_(v), factor_dim_(factor_dim), seed_(seed) {
    v_grid_ = distme::GenerateUniform(gen_v_);
    const double nnz = static_cast<double>(v_grid_.TotalNnz());
    const double f = static_cast<double>(factor_dim_);
    const double users = static_cast<double>(gen_v_.rows);
    const double items = static_cast<double>(gen_v_.cols);
    // WᵀV and VHᵀ: 2·f flops per non-zero of V each. WᵀW, (WᵀW)H, HHᵀ and
    // W(HHᵀ): dense, 2·f² per row of W or column of H each.
    flops_ = 4.0 * f * nnz + 4.0 * f * f * (users + items);
  }

  Session::Options SessionOptions() const override {
    Session::Options options = BaseOptions();
    options.mode = distme::engine::ComputeMode::kGpuStreaming;
    return options;
  }

  Status Generate(Session* session) override {
    DISTME_ASSIGN_OR_RETURN(v_, session->Generate(gen_v_));
    DISTME_ASSIGN_OR_RETURN(w_, session->Generate(FactorOptions(true)));
    DISTME_ASSIGN_OR_RETURN(h_, session->Generate(FactorOptions(false)));
    return Status::OK();
  }

  Status RunOp(Session* session, SpanRecorder* spans, int64_t op_id) override {
    using distme::blas::ElementWiseOp;
    const double eps = distme::core::GnmfOptions{}.epsilon;
    auto transpose = [&](const Matrix& m) {
      ScopedSpan span(spans, "core.transpose", op_id);
      return session->Transpose(m);
    };
    auto multiply = [&](const Matrix& a, const Matrix& b) {
      ScopedSpan span(spans, "core.multiply", op_id);
      return session->Multiply(a, b);
    };
    auto elementwise = [&](ElementWiseOp op, const Matrix& a, const Matrix& b,
                           double epsilon) {
      ScopedSpan span(spans, "core.elementwise", op_id);
      return session->ElementWise(op, a, b, epsilon);
    };
    // H ← H ∘ (Wᵀ V) ⊘ (Wᵀ W H)
    DISTME_ASSIGN_OR_RETURN(Matrix wt, transpose(w_));
    DISTME_ASSIGN_OR_RETURN(Matrix wtv, multiply(wt, v_));
    DISTME_ASSIGN_OR_RETURN(Matrix wtw, multiply(wt, w_));
    DISTME_ASSIGN_OR_RETURN(Matrix wtwh, multiply(wtw, h_));
    DISTME_ASSIGN_OR_RETURN(Matrix h_num,
                            elementwise(ElementWiseOp::kMul, h_, wtv, 0.0));
    const Matrix h_old = h_;
    DISTME_ASSIGN_OR_RETURN(h_,
                            elementwise(ElementWiseOp::kDiv, h_num, wtwh, eps));
    // W ← W ∘ (V Hᵀ) ⊘ (W H Hᵀ)
    DISTME_ASSIGN_OR_RETURN(Matrix ht, transpose(h_));
    DISTME_ASSIGN_OR_RETURN(Matrix vht, multiply(v_, ht));
    DISTME_ASSIGN_OR_RETURN(Matrix hht, multiply(h_, ht));
    DISTME_ASSIGN_OR_RETURN(Matrix whht, multiply(w_, hht));
    DISTME_ASSIGN_OR_RETURN(Matrix w_num,
                            elementwise(ElementWiseOp::kMul, w_, vht, 0.0));
    const Matrix w_old = w_;
    DISTME_ASSIGN_OR_RETURN(w_,
                            elementwise(ElementWiseOp::kDiv, w_num, whht, eps));
    multiplies_ = {{wt, v_},  {wt, w_old}, {wtw, h_old},
                   {v_, ht},  {h_, ht},    {w_old, hht}};
    ++iterations_;
    return Status::OK();
  }

  // Two checks per iteration, both on the collected factors:
  //  * the update itself: H' and W' recomputed on one node from the previous
  //    factors (H' = H ∘ WᵀV ⊘ (WᵀW·H + ε), W' = W ∘ VH'ᵀ ⊘ (W·H'H'ᵀ + ε)),
  //    within kRelTolerance — every element of both factors is checked;
  //  * the loss ‖V − WH‖²_F = ‖V‖² − 2⟨V, WH⟩ + tr((WᵀW)(HHᵀ)) does not rise.
  // Both touch only V's non-zeros and f × f Gram matrices, so they cost a
  // few factor-sized passes instead of the dense users × items product.
  bool CheckOp(bool corrupt) override {
    if (prev_w_.num_elements() == 0) {
      prev_w_ = distme::GenerateUniform(FactorOptions(true)).ToDense();
      prev_ht_ =
          distme::GenerateUniform(FactorOptions(false)).ToDense().Transpose();
      prev_gram_w_ = Gram(prev_w_);
    }
    const DenseMatrix w = w_.Collect().ToDense();
    const DenseMatrix ht = h_.Collect().ToDense().Transpose();
    DenseMatrix checked_w = w;
    if (corrupt) Corrupt(&checked_w);
    const int64_t f = factor_dim_;
    const int64_t users = w.rows();
    const int64_t items = ht.rows();
    const double eps = distme::core::GnmfOptions{}.epsilon;

    // (WᵀV)ᵀ and VH'ᵀ, row by row, from V's non-zeros.
    DenseMatrix wtv_t(items, f);
    DenseMatrix vht(users, f);
    double inner = 0.0;
    double v_norm2 = 0.0;
    ForEachVNonZero([&](int64_t r, int64_t c, double v) {
      const double* w0 = prev_w_.row(r);
      const double* h1 = ht.row(c);
      double* a = wtv_t.mutable_row(c);
      double* b = vht.mutable_row(r);
      double dot = 0.0;
      for (int64_t t = 0; t < f; ++t) {
        a[t] += w0[t] * v;
        b[t] += v * h1[t];
        dot += checked_w.row(r)[t] * h1[t];
      }
      inner += v * dot;
      v_norm2 += v * v;
    });
    const DenseMatrix gram_h = Gram(ht);
    DenseMatrix expect_ht(items, f);
    for (int64_t c = 0; c < items; ++c) {
      for (int64_t t = 0; t < f; ++t) {
        double den = 0.0;
        for (int64_t u = 0; u < f; ++u) {
          den += prev_gram_w_.At(t, u) * prev_ht_.At(c, u);
        }
        expect_ht.Set(c, t, prev_ht_.At(c, t) * wtv_t.At(c, t) / (den + eps));
      }
    }
    DenseMatrix expect_w(users, f);
    for (int64_t r = 0; r < users; ++r) {
      for (int64_t t = 0; t < f; ++t) {
        double den = 0.0;
        for (int64_t u = 0; u < f; ++u) den += prev_w_.At(r, u) * gram_h.At(u, t);
        expect_w.Set(r, t, prev_w_.At(r, t) * vht.At(r, t) / (den + eps));
      }
    }
    const bool update_ok = WithinTolerance(ht, expect_ht) &&
                           WithinTolerance(checked_w, expect_w);

    const DenseMatrix gram_w = Gram(checked_w);
    double trace = 0.0;
    for (int64_t n = 0; n < f * f; ++n) {
      trace += gram_w.data()[n] * gram_h.data()[n];
    }
    const double loss2 = v_norm2 - 2.0 * inner + trace;
    // Rounding in the expansion is relative to ‖V‖², not to the loss.
    const bool loss_ok = loss2 <= last_loss2_ + 1e-10 * v_norm2;
    last_loss2_ = loss2;

    prev_w_ = w;
    prev_ht_ = ht;
    prev_gram_w_ = corrupt ? Gram(w) : gram_w;
    return update_ok && loss_ok;
  }

  // The factors after the run equal core::RunGnmf's with the same seed,
  // iteration count and session configuration, bit for bit.
  bool CheckRun() override {
    Session session(SessionOptions());
    auto v = session.Generate(gen_v_);
    if (!v.ok()) return false;
    distme::core::GnmfOptions options;
    options.factor_dim = factor_dim_;
    options.iterations = static_cast<int>(iterations_);
    options.seed = seed_;
    auto reference = distme::core::RunGnmf(&session, *v, options);
    if (!reference.ok()) return false;
    return BitwiseEqual(w_.Collect().ToDense(),
                        reference->w.Collect().ToDense()) &&
           BitwiseEqual(h_.Collect().ToDense(),
                        reference->h.Collect().ToDense());
  }

  double UsefulFlopsPerOp() const override { return flops_; }
  std::vector<OpMultiply> LastOpMultiplies() const override {
    return multiplies_;
  }
  std::vector<Matrix> ElementWiseMatrices() const override {
    return {w_, h_};
  }
  bool OpHasTransposeAndElementWise() const override { return true; }

 private:
  // The initial factors exactly as core::RunGnmf draws them.
  GeneratorOptions FactorOptions(bool w) const {
    GeneratorOptions g;
    g.rows = w ? gen_v_.rows : factor_dim_;
    g.cols = w ? factor_dim_ : gen_v_.cols;
    g.block_size = gen_v_.block_size;
    g.sparsity = 1.0;
    g.seed = w ? seed_ : seed_ + 1;
    return g;
  }

  template <typename Fn>
  void ForEachVNonZero(Fn&& fn) const {
    const int64_t bs = gen_v_.block_size;
    for (const auto& [idx, block] : v_grid_.blocks()) {
      ForEachNonZero(block, [&](int64_t r, int64_t c, double v) {
        fn(idx.i * bs + r, idx.j * bs + c, v);
      });
    }
  }

  // MᵀM for a row-major rows × f matrix.
  static DenseMatrix Gram(const DenseMatrix& m) {
    const int64_t f = m.cols();
    DenseMatrix g(f, f);
    for (int64_t r = 0; r < m.rows(); ++r) {
      const double* row = m.row(r);
      for (int64_t s = 0; s < f; ++s) {
        double* grow = g.mutable_row(s);
        for (int64_t t = 0; t < f; ++t) grow[t] += row[s] * row[t];
      }
    }
    return g;
  }

  GeneratorOptions gen_v_;
  int64_t factor_dim_;
  uint64_t seed_;
  BlockGrid v_grid_;
  double flops_ = 0.0;
  Matrix v_;
  Matrix w_;
  Matrix h_;
  int64_t iterations_ = 0;
  // Factors after the last checked op (W, Hᵀ) and WᵀW, for the next check.
  DenseMatrix prev_w_;
  DenseMatrix prev_ht_;
  DenseMatrix prev_gram_w_;
  double last_loss2_ = std::numeric_limits<double>::infinity();
  std::vector<OpMultiply> multiplies_;
};

GeneratorOptions Uniform(int64_t rows, int64_t cols, int64_t block_size,
                         double density, uint64_t seed) {
  GeneratorOptions options;
  options.rows = rows;
  options.cols = cols;
  options.block_size = block_size;
  options.sparsity = density;
  options.seed = seed;
  return options;
}

// 2 · Σ_k a_cols[k] · b_rows[k].
double PerKFlops(const std::vector<int64_t>& a_cols,
                 const std::vector<int64_t>& b_rows) {
  double flops = 0.0;
  for (size_t k = 0; k < a_cols.size() && k < b_rows.size(); ++k) {
    flops += 2.0 * static_cast<double>(a_cols[k]) *
             static_cast<double>(b_rows[k]);
  }
  return flops;
}

}  // namespace

double UsefulFlops(const distme::Block& a, const distme::Block& b) {
  std::vector<int64_t> a_cols(static_cast<size_t>(a.cols()), 0);
  std::vector<int64_t> b_rows(static_cast<size_t>(b.rows()), 0);
  ForEachNonZero(a, [&](int64_t, int64_t c, double) {
    ++a_cols[static_cast<size_t>(c)];
  });
  ForEachNonZero(b, [&](int64_t r, int64_t, double) {
    ++b_rows[static_cast<size_t>(r)];
  });
  return PerKFlops(a_cols, b_rows);
}

double UsefulFlops(const BlockGrid& a, const BlockGrid& b) {
  std::vector<int64_t> a_cols(static_cast<size_t>(a.shape().cols), 0);
  std::vector<int64_t> b_rows(static_cast<size_t>(b.shape().rows), 0);
  const int64_t bs = a.shape().block_size;
  for (const auto& [idx, block] : a.blocks()) {
    ForEachNonZero(block, [&](int64_t, int64_t c, double) {
      ++a_cols[static_cast<size_t>(idx.j * bs + c)];
    });
  }
  for (const auto& [idx, block] : b.blocks()) {
    ForEachNonZero(block, [&](int64_t r, int64_t, double) {
      ++b_rows[static_cast<size_t>(idx.i * bs + r)];
    });
  }
  return PerKFlops(a_cols, b_rows);
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config) {
  const uint64_t seed_a = DeriveSeed(config.seed, 1);
  const uint64_t seed_b = DeriveSeed(config.seed, 2);
  const bool smoke = config.smoke;
  if (config.name == "dense-square") {
    // Compute-bound: the planner picks CuboidMM(1,2,2), 4 tasks, no
    // aggregation; Dgemm is ~95% of the critical path.
    const int64_t n = smoke ? 256 : 1024;
    const int64_t bs = smoke ? 64 : 128;
    return std::make_unique<MultiplyWorkload>(
        Uniform(n, n, bs, 1.0, seed_a), Uniform(n, n, bs, 1.0, seed_b),
        /*prefetch_depth=*/0);
  }
  if (config.name == "sparse-common-dim") {
    // The paper's common-large-dimension case: CuboidMM(2,1,2) splits k
    // across nodes and aggregates partials, so wire format and aggregation
    // dominate while kernel flops are tiny. The only workload with the
    // prefetch pipeline on.
    const int64_t m = smoke ? 128 : 512;
    const int64_t k = smoke ? 4096 : 65536;
    const int64_t bs = smoke ? 64 : 256;
    return std::make_unique<MultiplyWorkload>(
        Uniform(m, k, bs, 0.01, seed_a), Uniform(k, m, bs, 0.01, seed_b),
        /*prefetch_depth=*/2);
  }
  if (config.name == "gnmf-gpu") {
    // Section 6.4's iterative query on a scaled Netflix matrix: many small
    // ops, so per-op fixed cost shows; the only Algorithm 1 streaming path.
    GeneratorOptions v = distme::RatingMatrixOptions(
        distme::Netflix(), smoke ? 32 : 128, smoke ? 0.002 : 0.02);
    v.seed = seed_a;
    return std::make_unique<GnmfWorkload>(v, smoke ? 8 : 64, seed_b);
  }
  return nullptr;
}

}  // namespace perfbench
