#include "metrics/pattern_score.h"

#include <algorithm>
#include <limits>

#include "cluster/similarity.h"
#include "common/logging.h"

namespace vqi {

PatternSetEvaluator::PatternSetEvaluator(size_t universe_size,
                                         ScoreWeights weights)
    : universe_size_(universe_size),
      weights_(weights),
      covered_(universe_size) {}

double PatternSetEvaluator::ScoreOf(size_t covered_count, double sim_sum,
                                    double load_sum, size_t k) const {
  double coverage =
      universe_size_ == 0
          ? 0.0
          : static_cast<double>(covered_count) /
                static_cast<double>(universe_size_);
  double diversity =
      k < 2 ? 1.0
            : 1.0 - 2.0 * sim_sum /
                        (static_cast<double>(k) * static_cast<double>(k - 1));
  double load = k == 0 ? 0.0 : load_sum / static_cast<double>(k);
  return weights_.coverage * coverage + weights_.diversity * diversity -
         weights_.cognitive_load * load;
}

double PatternSetEvaluator::CurrentScore() const {
  return ScoreOf(covered_.Count(), pairwise_sim_sum_, load_sum_,
                 features_.size());
}

double PatternSetEvaluator::ScoreWith(const ScoredCandidate& candidate) const {
  VQI_CHECK_EQ(candidate.coverage.size(), universe_size_);
  size_t covered_count = covered_.UnionCount(candidate.coverage);
  double sim_sum = pairwise_sim_sum_;
  for (const FeatureVector& f : features_) {
    sim_sum += CosineSimilarity(f, candidate.feature);
  }
  return ScoreOf(covered_count, sim_sum, load_sum_ + candidate.load,
                 features_.size() + 1);
}

double PatternSetEvaluator::MarginalGain(
    const ScoredCandidate& candidate) const {
  return ScoreWith(candidate) - CurrentScore();
}

double PatternSetEvaluator::GainUpperBound(
    size_t candidate_coverage_count) const {
  // Coverage can improve by at most count/universe; diversity can improve by
  // at most reaching 1 from the current value; load can only hurt. This is a
  // true upper bound used to prune candidates cheaply.
  double coverage_gain =
      universe_size_ == 0
          ? 0.0
          : weights_.coverage * static_cast<double>(candidate_coverage_count) /
                static_cast<double>(universe_size_);
  size_t k = features_.size();
  double diversity_now =
      k < 2 ? 1.0
            : 1.0 - 2.0 * pairwise_sim_sum_ /
                        (static_cast<double>(k) * static_cast<double>(k - 1));
  double diversity_gain = weights_.diversity * std::max(0.0, 1.0 - diversity_now);
  return coverage_gain + diversity_gain;
}

void PatternSetEvaluator::Add(const ScoredCandidate& candidate) {
  VQI_CHECK_EQ(candidate.coverage.size(), universe_size_);
  covered_.UnionWith(candidate.coverage);
  for (const FeatureVector& f : features_) {
    pairwise_sim_sum_ += CosineSimilarity(f, candidate.feature);
  }
  load_sum_ += candidate.load;
  features_.push_back(candidate.feature);
}

double PatternSetEvaluator::coverage_fraction() const {
  if (universe_size_ == 0) return 0.0;
  return static_cast<double>(covered_.Count()) /
         static_cast<double>(universe_size_);
}

std::vector<size_t> GreedySelect(
    const std::vector<ScoredCandidate>& candidates, size_t budget,
    size_t universe_size, const ScoreWeights& weights) {
  PatternSetEvaluator evaluator(universe_size, weights);
  std::vector<size_t> selected;
  // A pattern that covers nothing cannot help query formulation; this also
  // filters CSG-walk artifacts absent from every member graph. Such a
  // candidate starts out taken.
  std::vector<bool> taken(candidates.size(), false);
  for (size_t i = 0; i < candidates.size(); ++i) {
    taken[i] = candidates[i].coverage.Count() == 0;
  }
  while (selected.size() < budget) {
    // MarginalGain's subtraction, with the selection's score taken once per
    // round: the same doubles, so the same picks.
    const double current = evaluator.CurrentScore();
    double best_gain = 0.0;
    int best = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i]) continue;
      double gain = evaluator.ScoreWith(candidates[i]) - current;
      if (best == -1 || gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    // Fill the budget as long as candidates remain (the surveyed selectors
    // return exactly b patterns; "no new pattern can be found" means the
    // candidate pool is exhausted, not that a marginal gain went negative —
    // the diversity term necessarily dips when the second pattern lands).
    if (best == -1) break;
    evaluator.Add(candidates[static_cast<size_t>(best)]);
    taken[static_cast<size_t>(best)] = true;
    selected.push_back(static_cast<size_t>(best));
  }
  return selected;
}

double EvaluateSubset(const std::vector<ScoredCandidate>& candidates,
                      const std::vector<size_t>& subset, size_t universe_size,
                      const ScoreWeights& weights) {
  PatternSetEvaluator evaluator(universe_size, weights);
  for (size_t i : subset) evaluator.Add(candidates[i]);
  return evaluator.CurrentScore();
}

namespace {

void EnumerateSubsets(const std::vector<ScoredCandidate>& candidates,
                      size_t budget, size_t universe_size,
                      const ScoreWeights& weights, size_t start,
                      std::vector<size_t>& current, double& best_score,
                      std::vector<size_t>& best_subset) {
  if (!current.empty()) {
    double score = EvaluateSubset(candidates, current, universe_size, weights);
    if (score > best_score) {
      best_score = score;
      best_subset = current;
    }
  }
  if (current.size() == budget) return;
  for (size_t i = start; i < candidates.size(); ++i) {
    current.push_back(i);
    EnumerateSubsets(candidates, budget, universe_size, weights, i + 1,
                     current, best_score, best_subset);
    current.pop_back();
  }
}

}  // namespace

std::vector<size_t> ExhaustiveSelect(
    const std::vector<ScoredCandidate>& candidates, size_t budget,
    size_t universe_size, const ScoreWeights& weights) {
  VQI_CHECK_LE(candidates.size(), 24u)
      << "ExhaustiveSelect is exponential; use small instances only";
  std::vector<size_t> current, best_subset;
  double best_score = -std::numeric_limits<double>::infinity();
  EnumerateSubsets(candidates, budget, universe_size, weights, 0, current,
                   best_score, best_subset);
  return best_subset;
}

}  // namespace vqi
