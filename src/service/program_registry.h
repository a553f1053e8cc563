// Named-program registry for the hosted service.
//
// The paper's deployment (Figure 2) has analysts submit computations to a
// service; in a hosted setting the service operator vets and installs the
// runnable programs, and analysts reference them by name with textual
// parameters ("mean of column 0", "k-means with k=4 over columns 0,1").
// The registry maps such requests to ProgramFactory instances. It ships
// with builders for every analytics program in src/analytics; operators
// register additional builders for their own vetted binaries.

#ifndef GUPT_SERVICE_PROGRAM_REGISTRY_H_
#define GUPT_SERVICE_PROGRAM_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/program.h"

namespace gupt {

/// A textual program request: a registered name plus key=value parameters.
/// GuptService refuses a name, key or value holding a newline, and a key
/// holding '=': pool workers receive the spec as `key=value` lines.
struct ProgramSpec {
  std::string name;
  std::map<std::string, std::string> params;
};

/// Parameter accessors with validation, for builder implementations.
namespace spec {

/// Required size_t parameter.
Result<std::size_t> GetSize(const ProgramSpec& spec, const std::string& key);

/// Optional size_t parameter with a default.
Result<std::size_t> GetSizeOr(const ProgramSpec& spec, const std::string& key,
                              std::size_t fallback);

/// Required double parameter.
Result<double> GetDouble(const ProgramSpec& spec, const std::string& key);

/// Optional double parameter with a default.
Result<double> GetDoubleOr(const ProgramSpec& spec, const std::string& key,
                           double fallback);

/// Required comma-separated size_t list (e.g. dims=0,1,2).
Result<std::vector<std::size_t>> GetSizeList(const ProgramSpec& spec,
                                             const std::string& key);

}  // namespace spec

class ProgramRegistry {
 public:
  using Builder = std::function<Result<ProgramFactory>(const ProgramSpec&)>;

  /// Registers a builder under `name`; duplicate names are an error.
  Status RegisterBuilder(const std::string& name, Builder builder);

  /// Builds a factory from a textual request.
  Result<ProgramFactory> Build(const ProgramSpec& spec) const;

  /// Sorted names of all registered programs.
  std::vector<std::string> ListPrograms() const;

  /// A registry preloaded with the standard analytics programs:
  ///   mean, variance, median, quantile(q), iqr, winsorized_mean(trim),
  ///   trimmed_mean(trim), histogram(bins,lo,hi), covariance(dim_a,dim_b),
  ///   kmeans(k,dims,iterations), logistic_regression(dims,label),
  ///   linear_regression(dims,target), pca(dims).
  /// Column selectors default to dim=0 where sensible.
  static ProgramRegistry WithStandardPrograms();

 private:
  std::map<std::string, Builder> builders_;
};

}  // namespace gupt

#endif  // GUPT_SERVICE_PROGRAM_REGISTRY_H_
