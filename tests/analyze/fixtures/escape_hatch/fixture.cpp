/// \file fixture.cpp
/// \brief aru-analyze fixture: ARU_ANALYZE_ESCAPE sanctions a reviewed
///        hot-path allocation — and its absence is not free.
///
/// Analyzed, never compiled. Without ARU_FIXTURE_FIXED the callee is
/// plain ARU_ALLOCATES and the hot root's call to it must be flagged;
/// with it, the same callee carries an ARU_ANALYZE_ESCAPE justification
/// and the analyzer must honor the hatch (exit 0, edge reported as a
/// sanctioned escape). The hot root calls it from two sites: one edge,
/// which the verbose header and the summary must both count once.

namespace fixture {

#ifdef ARU_FIXTURE_FIXED
ARU_ALLOCATES
ARU_ANALYZE_ESCAPE("amortized: appends to a reused thread-local batch flushed off the hot path")
void record_event(int node, long t);
#else
ARU_ALLOCATES
void record_event(int node, long t);
#endif

ARU_HOT_PATH void on_item(int node, long t) {
  record_event(node, t);
  record_event(node, t + 1);
}

}  // namespace fixture
