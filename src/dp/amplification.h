// Privacy amplification by sampling (paper §4 + ROADMAP item).
//
// The amplification-by-sampling lemma (Li/Qardaji "k-Anonymization Meets
// Differential Privacy"; Lin/Wang/Rane "Sampling in Privacy Preserving
// Statistical Analysis"): if the *released output* depends only on a
// random subsample that includes each record independently with
// probability gamma, and the mechanism applied to that subsample is
// epsilon-DP, then with respect to the full dataset the release is
//
//     epsilon' = ln(1 + gamma * (e^epsilon - 1))
//
// DP, with epsilon' <= epsilon and epsilon' ~= gamma * epsilon for small
// epsilon.
//
// SOUNDNESS — what does and does not qualify. The lemma's hypothesis is
// that the release depends on ONE random gamma-subsample. GUPT's ordinary
// sample-and-aggregate release does NOT qualify: it averages the outputs
// of ALL blocks of a partition, so every record influences the released
// value (a disjoint partition includes each record with probability 1 in
// exactly one block). That setting is parallel composition, which is
// exactly what already justifies calibrating noise at the raw epsilon —
// charging the amplified epsilon' for it would undercharge the real
// privacy loss by ~1/gamma. The runtime therefore only enables
// amplification by *changing the mechanism*: when a query declares a
// sampling rate, the pipeline draws a Bernoulli(gamma) subsample of the
// dataset first, partitions only the subsample, and aggregates only over
// it (PartitionStage in core/pipeline/stages.cc). Nothing outside the
// subsample is ever read, so the lemma applies to the whole release.
//
// This module is pure math: the closed form and its argument checks. The
// charging policy itself lives in core/pipeline (PlanStage lays the block
// geometry out against the subsample, AdmitStage charges, PartitionStage
// subsamples) — see docs/amplification.md.

#ifndef GUPT_DP_AMPLIFICATION_H_
#define GUPT_DP_AMPLIFICATION_H_

#include "common/status.h"

namespace gupt {
namespace dp {

/// The amplified charge epsilon' = ln(1 + rate * (e^epsilon - 1)) for a
/// mechanism whose release depends only on a Bernoulli(rate) subsample
/// and is `epsilon`-DP on it. Computed as log1p(rate * expm1(epsilon)) so
/// the small-epsilon regime keeps full relative precision; rate == 1
/// returns `epsilon` exactly (bit-for-bit), so a rate-1 query charges
/// precisely what it would uncharged. Requires epsilon finite and > 0,
/// and rate in (0, 1].
Result<double> AmplifiedEpsilon(double epsilon, double rate);

}  // namespace dp
}  // namespace gupt

#endif  // GUPT_DP_AMPLIFICATION_H_
