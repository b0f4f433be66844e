#include "reference_selector.h"

#include <algorithm>
#include <cstdint>

#include "common/math_utils.h"
#include "core/task_assignment.h"

namespace docs::testing {

std::vector<double> ReferenceScores(const core::DocsSystem& system,
                                    const core::DocsSystemOptions& options,
                                    size_t worker) {
  const core::IncrementalTruthInference& engine = system.inference();
  const std::vector<core::Task>& tasks = system.tasks();
  std::vector<double> quality = engine.worker_quality(worker).quality;
  if (options.selection_rule == core::SelectionRule::kQualityBlind) {
    double mean = 0.0;
    for (double q : quality) mean += q;
    mean /= std::max<size_t>(1, quality.size());
    quality.assign(quality.size(), mean);
  }
  std::vector<double> scores(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    switch (options.selection_rule) {
      case core::SelectionRule::kDomainMax: {
        double match = 0.0;
        for (size_t d = 0; d < quality.size(); ++d) {
          match += tasks[i].domain_vector[d] * quality[d];
        }
        scores[i] = match;
        break;
      }
      case core::SelectionRule::kUncertainty:
        scores[i] = Entropy(engine.task_truth(i));
        break;
      case core::SelectionRule::kBenefit:
      case core::SelectionRule::kQualityBlind:
        scores[i] = core::Benefit(tasks[i], engine.truth_matrix(i),
                                  engine.task_truth(i), quality,
                                  options.truth_inference.quality_clamp);
        break;
    }
  }
  return scores;
}

namespace {

std::vector<size_t> ReferenceRank(const std::vector<double>& scores,
                                  const std::vector<uint8_t>& eligible,
                                  size_t k) {
  std::vector<core::ScoredTask> ranked;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (eligible[i]) ranked.push_back({i, scores[i]});
  }
  std::sort(ranked.begin(), ranked.end(), core::BetterScored);
  std::vector<size_t> selected;
  for (size_t s = 0; s < ranked.size() && s < k; ++s) {
    selected.push_back(ranked[s].task);
  }
  return selected;
}

}  // namespace

std::vector<size_t> ReferenceSelect(const core::DocsSystem& system,
                                    const core::DocsSystemOptions& options,
                                    size_t worker, size_t k) {
  if (system.InGoldenPhase(worker)) {
    std::vector<size_t> golden;
    bool unanswered = false;
    for (size_t task : system.golden_tasks()) {
      if (system.inference().HasAnswered(worker, task)) continue;
      unanswered = true;
      if (golden.size() == k) break;
      golden.push_back(task);
    }
    if (unanswered) return golden;
  }
  // Eligibility from the engine's answered set and the cap alone, not the
  // product's eligibility bitmap.
  std::vector<uint8_t> eligible(system.tasks().size());
  for (size_t task = 0; task < eligible.size(); ++task) {
    eligible[task] = !system.inference().HasAnswered(worker, task) &&
                     !system.AtAnswerCap(task);
  }
  return ReferenceRank(ReferenceScores(system, options, worker), eligible, k);
}

std::vector<size_t> ReferenceRequest(core::ConcurrentDocsSystem& system,
                                     const core::DocsSystemOptions& options,
                                     const std::string& worker_id, size_t k) {
  system.Drain();
  return system.WithLocked([&](core::DocsSystem& inner) {
    return ReferenceSelect(inner, options, inner.WorkerIndex(worker_id), k);
  });
}

}  // namespace docs::testing
