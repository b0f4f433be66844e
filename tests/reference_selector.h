#ifndef DOCS_TESTS_REFERENCE_SELECTOR_H_
#define DOCS_TESTS_REFERENCE_SELECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"

namespace docs::testing {

/// The OTA selector of paper §5.1 with no cache, no index, no bounds and no
/// fused kernel, kept only as a test oracle for DocsSystem's serving paths.
/// It reads the live engine through the public accessors and scores every
/// task from scratch:
///  - kBenefit: the allocating reference core::Benefit (Definition 5);
///  - kDomainMax: the domain match sum_k r_k q_k;
///  - kUncertainty: H(s_i), recomputed from s_i;
///  - kQualityBlind: core::Benefit with the worker's profile flattened to
///    its mean.
/// `options` must be the options the system was built with.
std::vector<double> ReferenceScores(const core::DocsSystem& system,
                                    const core::DocsSystemOptions& options,
                                    size_t worker);

/// What system.SelectTasks(worker, k) grants next: the first k golden tasks
/// she has not answered while her golden phase is open, otherwise the
/// eligible tasks ordered by core::BetterScored on ReferenceScores (a full
/// sort, not the product's nth_element), first k. A task is eligible when
/// she has not answered it and it is not at the redundancy cap. Reads the
/// engine's answered set, so an async system must be drained first.
/// `worker` must be registered.
std::vector<size_t> ReferenceSelect(const core::DocsSystem& system,
                                    const core::DocsSystemOptions& options,
                                    size_t worker, size_t k);

/// ReferenceSelect for the facade's RequestTasks(worker_id, k): drains, then
/// reads the system under its locks. Registers `worker_id` first, as the
/// request would, so a first contact has a profile to score.
std::vector<size_t> ReferenceRequest(core::ConcurrentDocsSystem& system,
                                     const core::DocsSystemOptions& options,
                                     const std::string& worker_id, size_t k);

}  // namespace docs::testing

#endif  // DOCS_TESTS_REFERENCE_SELECTOR_H_
