#include "core/density_filter.h"

#include <algorithm>
#include <cmath>

#include "kde/kde_cache.h"
#include "util/parallel.h"

namespace fairdrift {

namespace {

// One (group x label) cell's slice of the filtering work. Cells are
// independent, so they are ranked in parallel; the merge happens on the
// caller's thread in deterministic cell order.
struct CellTask {
  std::vector<size_t> indices;  // dataset row ids of the cell
  size_t keep = 0;              // how many of them to keep
  uint64_t cell_slot = 0;       // g * num_classes + y (fingerprint memo slot)
};

struct CellOutcome {
  std::vector<size_t> kept;
  Status status;
};

}  // namespace

Result<std::vector<size_t>> DensityFilterIndices(
    const Dataset& data, const DensityFilterOptions& options) {
  if (!data.has_labels() || !data.has_groups()) {
    return Status::FailedPrecondition(
        "DensityFilter: dataset needs labels and groups");
  }
  if (options.keep_fraction <= 0.0 || options.keep_fraction > 1.0) {
    return Status::InvalidArgument(
        "DensityFilter: keep_fraction must be in (0, 1]");
  }

  std::vector<size_t> kept;
  std::vector<CellTask> tasks;
  for (int g = 0; g < data.num_groups(); ++g) {
    for (int y = 0; y < data.num_classes(); ++y) {
      std::vector<size_t> cell = data.CellIndices(g, y);
      if (cell.empty()) continue;

      size_t k = static_cast<size_t>(std::ceil(
          options.keep_fraction * static_cast<double>(cell.size())));
      k = std::max(k, std::min(options.min_cell_size, cell.size()));
      if (k >= cell.size()) {
        kept.insert(kept.end(), cell.begin(), cell.end());
        continue;
      }
      uint64_t slot = static_cast<uint64_t>(g) *
                          static_cast<uint64_t>(data.num_classes()) +
                      static_cast<uint64_t>(y);
      tasks.push_back({std::move(cell), k, slot});
    }
  }

  // Rank each undersized cell by KDE density on the pool. The KDE's own
  // EvaluateAll is parallel too; entered from a worker it degrades to an
  // inline loop, so cell-level parallelism wins when there are many small
  // cells and query-level parallelism wins when there are few big ones.
  // DensityRanking resolves its fit through the global KdeCache, so
  // repeated filters over the same training split (method columns,
  // repeated bench trials) reuse one fitted estimator per cell.
  std::vector<CellOutcome> outcomes = ParallelMap<CellOutcome>(
      tasks.size(), [&](size_t t) -> CellOutcome {
        const CellTask& task = tasks[t];
        CellOutcome out;
        Matrix cell_numeric = data.Subset(task.indices).NumericMatrix();
        if (cell_numeric.cols() == 0) {
          // No numeric attributes to rank on: keep the cell whole.
          out.kept = task.indices;
          return out;
        }
        // The (dataset version, cell) hint lets the fit cache skip the
        // O(nd) content rehash when the same unmutated dataset is
        // profiled again (method columns, repeated trials).
        Result<std::vector<size_t>> ranking = DensityRankingWithHint(
            cell_numeric, options.kde,
            KdeCacheHint{data.version(), task.cell_slot,
                         kKdeHintSpaceDensityFilterCell});
        if (!ranking.ok()) {
          out.status = ranking.status();
          return out;
        }
        out.kept.reserve(task.keep);
        for (size_t i = 0; i < task.keep; ++i) {
          out.kept.push_back(task.indices[ranking.value()[i]]);
        }
        return out;
      });
  for (const CellOutcome& out : outcomes) {
    if (!out.status.ok()) return out.status;
    kept.insert(kept.end(), out.kept.begin(), out.kept.end());
  }

  if (kept.empty()) {
    return Status::InvalidArgument("DensityFilter: nothing kept");
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

Result<Dataset> ApplyDensityFilter(const Dataset& data,
                                   const DensityFilterOptions& options) {
  Result<std::vector<size_t>> idx = DensityFilterIndices(data, options);
  if (!idx.ok()) return idx.status();
  return data.Subset(idx.value());
}

}  // namespace fairdrift
