#pragma once

#include <string>
#include <vector>

namespace aggchecker {
namespace fault_injection {

/// \brief Compile-time manifest of every AGG_FAULT_POINT /
/// AGG_FAULT_POINT_STATUS site in the tree.
///
/// The runtime registry (fault_injection.h) only learns about a point when
/// its call site first executes, so a chaos sweep over RegisteredPoints()
/// silently skips points on never-executed paths. This manifest closes that
/// gap: `scripts/check.sh chaos-matrix` greps the source tree and fails on
/// drift between the sites and this list, and ChaosMatrixTest arms every
/// entry and fails on any point that never records a hit.
///
/// Keep the list alphabetized. Adding a fault point without a manifest
/// entry (or vice versa) is a gate failure, not a silent omission.
#define AGG_FAULT_POINT_MANIFEST(X) \
  X("catalog.build")                \
  X("check.run")                    \
  X("csv.row")                      \
  X("cube.materialize")             \
  X("cube.scan.vectorized")         \
  X("data.ingest.append")           \
  X("em.iterate")                   \
  X("eval.recheck.splice")          \
  X("executor.execute")             \
  X("executor.scan")                \
  X("fleet.generator.emit")         \
  X("fleet.schedule.pop")           \
  X("join.materialize")             \
  X("relation.cache.acquire")       \
  X("snapshot.load.map")            \
  X("translator.probe")

/// The manifest as a vector, for tests and tooling.
inline std::vector<std::string> ManifestPoints() {
  std::vector<std::string> points;
#define AGG_FI_MANIFEST_ADD(name) points.push_back(name);
  AGG_FAULT_POINT_MANIFEST(AGG_FI_MANIFEST_ADD)
#undef AGG_FI_MANIFEST_ADD
  return points;
}

}  // namespace fault_injection
}  // namespace aggchecker
