#include "db/aggregate.h"

#include <cmath>

namespace aggchecker {
namespace db {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "Count";
    case AggFn::kCountDistinct:
      return "CountDistinct";
    case AggFn::kSum:
      return "Sum";
    case AggFn::kAvg:
      return "Average";
    case AggFn::kMin:
      return "Min";
    case AggFn::kMax:
      return "Max";
    case AggFn::kPercentage:
      return "Percentage";
    case AggFn::kConditionalProbability:
      return "ConditionalProbability";
  }
  return "?";
}

const std::vector<AggFn>& AllAggFns() {
  static const std::vector<AggFn> kAll = {
      AggFn::kCount,      AggFn::kCountDistinct,
      AggFn::kSum,        AggFn::kAvg,
      AggFn::kMin,        AggFn::kMax,
      AggFn::kPercentage, AggFn::kConditionalProbability,
  };
  return kAll;
}

const std::vector<std::string>& AggFnKeywords(AggFn fn) {
  // Fixed keyword sets per §4.2. These are the "related keywords" indexed
  // with each aggregation-function fragment.
  static const std::vector<std::string> kCount = {
      "count", "number", "many", "times", "total", "amount", "there", "were",
      "only"};
  static const std::vector<std::string> kCountDistinct = {
      "count", "distinct", "unique", "different", "number", "many",
      "separate", "individual"};
  static const std::vector<std::string> kSum = {
      "sum", "total", "overall", "combined", "altogether", "aggregate"};
  static const std::vector<std::string> kAvg = {
      "average", "mean", "typical", "typically", "expected", "per"};
  static const std::vector<std::string> kMin = {
      "min", "minimum", "lowest", "smallest", "least", "fewest", "shortest",
      "worst", "earliest"};
  static const std::vector<std::string> kMax = {
      "max", "maximum", "highest", "largest", "most", "biggest", "longest",
      "best", "latest", "top"};
  static const std::vector<std::string> kPercentage = {
      "percentage", "percent", "share", "fraction", "proportion", "rate",
      "ratio"};
  static const std::vector<std::string> kCondProb = {
      "probability", "likelihood", "chance", "odds", "given", "conditional",
      "likely"};
  switch (fn) {
    case AggFn::kCount:
      return kCount;
    case AggFn::kCountDistinct:
      return kCountDistinct;
    case AggFn::kSum:
      return kSum;
    case AggFn::kAvg:
      return kAvg;
    case AggFn::kMin:
      return kMin;
    case AggFn::kMax:
      return kMax;
    case AggFn::kPercentage:
      return kPercentage;
    case AggFn::kConditionalProbability:
      return kCondProb;
  }
  return kCount;
}

bool RequiresColumn(AggFn fn) {
  return fn != AggFn::kCount && fn != AggFn::kPercentage &&
         fn != AggFn::kConditionalProbability;
}

bool RequiresNumericColumn(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kAvg:
    case AggFn::kMin:
    case AggFn::kMax:
      return true;
    default:
      return false;
  }
}

void Aggregator::Add(const Value& v) {
  if (v.is_null()) return;
  ++count_;
  switch (fn_) {
    case AggFn::kCount:
      break;
    case AggFn::kCountDistinct:
      if (v.type() == ValueType::kDouble && std::isnan(v.AsDoubleExact())) {
        ++distinct_nans_;
      } else {
        distinct_.insert(v);
      }
      break;
    case AggFn::kSum:
    case AggFn::kAvg: {
      double d = v.ToDouble();
      if (!std::isfinite(d)) poisoned_ = true;
      sum_ += d;
      break;
    }
    case AggFn::kMin: {
      double d = v.ToDouble();
      if (!std::isfinite(d)) poisoned_ = true;
      if (!min_ || d < *min_) min_ = d;
      break;
    }
    case AggFn::kMax: {
      double d = v.ToDouble();
      if (!std::isfinite(d)) poisoned_ = true;
      if (!max_ || d > *max_) max_ = d;
      break;
    }
    default:
      break;  // ratio aggregates are computed outside the accumulator
  }
}

std::optional<double> Aggregator::Finish() const {
  switch (fn_) {
    case AggFn::kCount:
      return static_cast<double>(count_);
    case AggFn::kCountDistinct:
      return static_cast<double>(distinct_.size() + distinct_nans_);
    case AggFn::kSum: {
      // SQL semantics: SUM over zero rows is NULL (also keeps cube lookups,
      // where empty groups are absent, consistent with naive execution).
      if (count_ == 0 || poisoned_) return std::nullopt;
      // A finite input stream can still overflow to +-Inf; a verdict based
      // on an overflowed sum would be wrong either way, so it is undefined.
      if (!std::isfinite(sum_)) return std::nullopt;
      return sum_;
    }
    case AggFn::kAvg:
      if (count_ == 0 || poisoned_) return std::nullopt;
      if (!std::isfinite(sum_)) return std::nullopt;
      return sum_ / static_cast<double>(count_);
    case AggFn::kMin:
      if (poisoned_) return std::nullopt;
      return min_;
    case AggFn::kMax:
      if (poisoned_) return std::nullopt;
      return max_;
    default:
      return std::nullopt;
  }
}

}  // namespace db
}  // namespace aggchecker
