#include "classify/block_classifier.hpp"

#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"

namespace fepia::classify {

namespace {

// Two lanes of the fused linear pass, as a GCC vector extension. Each
// operation on it is the lanewise IEEE operation, so every lane computes
// exactly its scalar value, and SSE2 takes two lanes per instruction.
using Pair = double __attribute__((vector_size(16)));

Pair loadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

BlockClassifier::BlockClassifier(const feature::FeatureSet& phi, Mode mode)
    : phi_(phi), mode_(mode), gather_(phi.dimension()) {
  pure_.resize(phi_.size(), 0);
  std::vector<std::uint8_t> skipped(phi_.dimension(), 0);
  for (std::size_t f = 0; f < phi_.size(); ++f) {
    const feature::PerformanceFeature* base = phi_[f].feature.get();
    const auto* lin = dynamic_cast<const feature::LinearFeature*>(base);
    const bool isQuadratic =
        dynamic_cast<const feature::QuadraticFeature*>(base) != nullptr;
    pure_[f] = (lin != nullptr || isQuadratic) ? 1 : 0;
    if (lin == nullptr || mode_ != Mode::Batched) continue;
    if (runs_.empty() || runs_.back().first + runs_.back().rows.size() != f) {
      runs_.push_back(LinearRun{f, {}, {}});
    }
    LinearRun& run = runs_.back();
    const la::Vector& k = lin->coefficients();
    const std::size_t termBegin = run.terms.size();
    for (std::size_t j = 0; j < k.size(); ++j) {
      if (k[j] == 0.0) {
        skipped[j] = 1;
      } else {
        run.terms.push_back(LinearTerm{j, k[j]});
      }
    }
    run.rows.push_back(LinearRow{termBegin, run.terms.size(), lin->offset(),
                                 phi_[f].bounds.betaMin(),
                                 phi_[f].bounds.betaMax()});
  }
  for (std::size_t j = 0; j < skipped.size(); ++j) {
    if (skipped[j] != 0) skippedCols_.push_back(j);
  }
  if (runs_.size() == 1 && runs_.front().rows.size() == phi_.size()) {
    wideCutover_ = kFusedLaneCutover;
  }
}

void BlockClassifier::classify(const la::PointBlock& block,
                               std::span<std::uint8_t> safeOut) {
  const std::size_t lanes = block.lanes();
  if (!phi_.empty() && block.dimension() != phi_.dimension()) {
    throw std::invalid_argument(
        "classify::BlockClassifier: block dimension does not match the "
        "feature set");
  }
  if (safeOut.size() < lanes) {
    throw std::invalid_argument(
        "classify::BlockClassifier: safeOut span too small");
  }
  ++stats_.blocks;
  stats_.lanes += lanes;
  for (std::size_t l = 0; l < lanes; ++l) safeOut[l] = 1;
  if (lanes == 0 || phi_.empty()) return;
  if (mode_ == Mode::Scalar || lanes < wideCutover_) {
    classifyScalar(block, safeOut);
  } else {
    classifyBatched(block, safeOut);
  }
}

bool BlockClassifier::classifyPoint(const la::Vector& pi) {
  if (!phi_.empty() && pi.size() != phi_.dimension()) {
    throw std::invalid_argument(
        "classify::BlockClassifier: point dimension does not match the "
        "feature set");
  }
  // A 1-lane block is below both cutovers in every mode, so classify()
  // would take the scalar path: FeatureSet::allWithinBounds on the
  // gathered point. Call it directly, with the same counters.
  static_assert(kWideLaneCutover > 1 && kFusedLaneCutover > 1);
  ++stats_.blocks;
  ++stats_.lanes;
  return phi_.allWithinBounds(pi);
}

void BlockClassifier::classifyScalar(const la::PointBlock& block,
                                     std::span<std::uint8_t> safeOut) {
  if (gather_.size() != block.dimension()) gather_.resize(block.dimension());
  for (std::size_t l = 0; l < block.lanes(); ++l) {
    block.gatherPoint(l, gather_.span());
    safeOut[l] = phi_.allWithinBounds(gather_) ? 1 : 0;
  }
}

void BlockClassifier::classifyBatched(const la::PointBlock& block,
                                      std::span<std::uint8_t> safeOut) {
  const std::size_t lanes = block.lanes();
  if (!runs_.empty()) {
    coords_.resize(block.dimension());
    for (std::size_t j = 0; j < coords_.size(); ++j) {
      coords_[j] = block.coordinate(j).data();
    }
    if (!skippedColumnsFinite(lanes)) {
      // 0 * inf in a skipped term is NaN, which must raise: only the
      // reference path evaluates every term.
      classifyScalar(block, safeOut);
      return;
    }
  }
  values_.resize(lanes);
  std::size_t live = lanes;
  auto run = runs_.begin();
  for (std::size_t f = 0; f < phi_.size();) {
    if (live == 0) return;
    if (live < wideCutover_) {
      // Too few survivors for wide kernels to pay for themselves: finish
      // the remaining features scalar-style (one gather per live lane,
      // short-circuit across features) — bit-identical verdicts.
      finishScalarTail(f, block, safeOut);
      return;
    }
    if (run != runs_.end() && run->first == f) {
      classifyLinearRun(*run, lanes, safeOut, live);
      f += run->rows.size();
      ++run;
      continue;
    }
    if (pure_[f] == 0) {
      evaluateFeatureNarrow(f, block, safeOut, live);
    } else {
      phi_[f].feature->evaluateBlock(block, values_);
      applyVerdictsWide(f, safeOut, lanes, live);
    }
    ++f;
  }
}

bool BlockClassifier::skippedColumnsFinite(std::size_t lanes) const {
  // Any non-finite term makes a sum non-finite, and a sum of finite
  // terms is finite unless it overflows, which only sends a finite block
  // to the reference path. One running sum per lane slot keeps the loop
  // free of reassociation, so it vectorises; sixteen keep the add
  // chains short.
  constexpr std::size_t kSlots = 16;
  double sum[kSlots] = {};
  for (const std::size_t j : skippedCols_) {
    const double* row = coords_[j];
    std::size_t l = 0;
    for (; l + kSlots <= lanes; l += kSlots) {
      for (std::size_t t = 0; t < kSlots; ++t) sum[t] += row[l + t];
    }
    for (; l < lanes; ++l) sum[0] += row[l];
  }
  double total = 0.0;
  for (const double s : sum) total += s;
  return total - total == 0.0;
}

template <std::size_t P>
void BlockClassifier::classifyLinearTile(const LinearRun& run,
                                         const double* const* x, std::size_t l,
                                         std::uint8_t* safe,
                                         std::size_t& firstNan) {
  // live[p]: 1.0 on a lane no feature has rejected yet, 0.0 otherwise.
  Pair live[P];
  Pair any = {};
  for (std::size_t p = 0; p < P; ++p) {
    live[p] = Pair{static_cast<double>(safe[l + 2 * p]),
                   static_cast<double>(safe[l + 2 * p + 1])};
    any += live[p];
  }
  const LinearTerm* terms = run.terms.data();
  for (std::size_t r = 0; r < run.rows.size() && any[0] + any[1] != 0.0;
       ++r) {
    const LinearRow& row = run.rows[r];
    // la::dot's order per lane: +0, then k_j * x_j ascending in j, no
    // fused multiply-add; the offset last, as LinearFeature::evaluate.
    Pair acc[P] = {};
    for (std::size_t i = row.termBegin; i < row.termEnd; ++i) {
      const double k = terms[i].k;
      const double* xj = x[terms[i].col] + l;
      for (std::size_t p = 0; p < P; ++p) acc[p] += k * loadPair(xj + 2 * p);
    }
    // Unordered compares are false, so a NaN lane drops out of `live`;
    // on a still-live lane it is the typed error instead.
    Pair nan = {};
    any = Pair{};
    for (std::size_t p = 0; p < P; ++p) {
      const Pair v = acc[p] + row.offset;
      nan += (v != v) ? live[p] : Pair{};
      live[p] = (v >= row.betaMin) ? live[p] : Pair{};
      live[p] = (v <= row.betaMax) ? live[p] : Pair{};
      any += live[p];
    }
    if (nan[0] + nan[1] != 0.0 && r < firstNan) firstNan = r;
  }
  for (std::size_t p = 0; p < P; ++p) {
    safe[l + 2 * p] = static_cast<std::uint8_t>(live[p][0]);
    safe[l + 2 * p + 1] = static_cast<std::uint8_t>(live[p][1]);
  }
}

void BlockClassifier::classifyLinearRun(const LinearRun& run,
                                        std::size_t lanes,
                                        std::span<std::uint8_t> safeOut,
                                        std::size_t& live) {
  const double* const* x = coords_.data();
  std::uint8_t* safe = safeOut.data();
  std::size_t firstNan = run.rows.size();
  std::size_t l = 0;
  for (; l + 8 <= lanes; l += 8) classifyLinearTile<4>(run, x, l, safe, firstNan);
  if (lanes - l >= 4) {
    classifyLinearTile<2>(run, x, l, safe, firstNan);
    l += 4;
  }
  if (lanes - l >= 2) {
    classifyLinearTile<1>(run, x, l, safe, firstNan);
    l += 2;
  }
  if (l < lanes) {
    // The odd last lane goes in a pair with its left neighbour (a run is
    // classified wide only on blocks of two lanes or more). Its mask
    // is already final, and a second pass over a final mask changes
    // nothing: a live lane passed every row, so none of them was NaN.
    classifyLinearTile<1>(run, x, lanes - 2, safe, firstNan);
  }
  if (firstNan < run.rows.size()) throwNonFinite(run.first + firstNan);
  live = 0;
  for (l = 0; l < lanes; ++l) live += safe[l];
}

void BlockClassifier::applyVerdictsWide(std::size_t f,
                                        std::span<std::uint8_t> safeOut,
                                        std::size_t lanes, std::size_t& live) {
  const feature::FeatureBounds& bounds = phi_[f].bounds;
  const double bmin = bounds.betaMin();
  const double bmax = bounds.betaMax();
  // Branch-free sweep: `inside` is false for NaN (unordered compares),
  // matching Containment::Outside masking; a NaN on a still-live lane is
  // the typed error instead, flagged here and raised after the sweep.
  std::uint8_t liveNan = 0;
  std::size_t newLive = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const double v = values_[l];
    const std::uint8_t wasLive = safeOut[l];
    const auto inside = static_cast<std::uint8_t>(v >= bmin && v <= bmax);
    liveNan |= static_cast<std::uint8_t>(wasLive &
                                         static_cast<std::uint8_t>(v != v));
    safeOut[l] = wasLive & inside;
    newLive += safeOut[l];
  }
  if (liveNan != 0) throwNonFinite(f);
  live = newLive;
}

void BlockClassifier::evaluateFeatureNarrow(std::size_t f,
                                            const la::PointBlock& block,
                                            std::span<std::uint8_t> safeOut,
                                            std::size_t& live) {
  if (gather_.size() != block.dimension()) gather_.resize(block.dimension());
  const feature::BoundedFeature& bf = phi_[f];
  for (std::size_t l = 0; l < block.lanes(); ++l) {
    if (safeOut[l] == 0) continue;
    block.gatherPoint(l, gather_.span());
    switch (bf.bounds.classify(bf.feature->evaluate(gather_))) {
      case feature::FeatureBounds::Containment::Inside:
        break;
      case feature::FeatureBounds::Containment::Outside:
        safeOut[l] = 0;
        --live;
        break;
      case feature::FeatureBounds::Containment::NonFinite:
        throwNonFinite(f);
    }
  }
}

void BlockClassifier::finishScalarTail(std::size_t fStart,
                                       const la::PointBlock& block,
                                       std::span<std::uint8_t> safeOut) {
  if (gather_.size() != block.dimension()) gather_.resize(block.dimension());
  for (std::size_t l = 0; l < block.lanes(); ++l) {
    if (safeOut[l] == 0) continue;
    block.gatherPoint(l, gather_.span());
    for (std::size_t f = fStart; f < phi_.size(); ++f) {
      const feature::BoundedFeature& bf = phi_[f];
      const auto verdict = bf.bounds.classify(bf.feature->evaluate(gather_));
      if (verdict == feature::FeatureBounds::Containment::Inside) continue;
      if (verdict == feature::FeatureBounds::Containment::NonFinite) {
        throwNonFinite(f);
      }
      safeOut[l] = 0;
      break;
    }
  }
}

void BlockClassifier::throwNonFinite(std::size_t f) const {
  throw feature::NonFiniteFeatureError(
      "feature '" + phi_[f].feature->name() +
      "' evaluated to NaN; containment is undefined for an unordered value");
}

}  // namespace fepia::classify
