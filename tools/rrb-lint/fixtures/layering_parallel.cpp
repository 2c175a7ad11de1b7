// Fixture: the worker pool sits below sim and bigtopo — it may depend on
// common and telemetry only, so including what it schedules inverts the
// architecture. Linted with --as src/parallel/fixture.cpp; expects 2
// findings of module-layering.
#include "rrb/common/runner_config.hpp"   // ok: declared dependency
#include "rrb/telemetry/telemetry.hpp"    // ok: declared dependency
#include "rrb/bigtopo/bigtopo.hpp"        // finding: bigtopo sits above
#include "rrb/sim/trial.hpp"              // finding: sim sits above

namespace rrb {
void fixture();
}
