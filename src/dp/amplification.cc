#include "dp/amplification.h"

#include <cmath>

namespace gupt {
namespace dp {

Result<double> AmplifiedEpsilon(double epsilon, double rate) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "AmplifiedEpsilon requires a finite epsilon > 0");
  }
  if (!std::isfinite(rate) || rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument(
        "AmplifiedEpsilon requires a sampling rate in (0, 1]");
  }
  // rate == 1 must reproduce epsilon to the last bit: log1p(expm1(x)) is
  // not the identity in floating point, and the golden tests pin the
  // gamma = 1 charge to exactly the declared epsilon.
  if (rate == 1.0) return epsilon;
  return std::log1p(rate * std::expm1(epsilon));
}

}  // namespace dp
}  // namespace gupt
