// Fixture: two det-raw-rng violations — srand seeding and a drand48
// draw. Both bypass the repo's fab::Rng, so a rerun with the same seed
// can diverge. Never compiled.
#include <cstdlib>

namespace rngfix {

// Fixture entry point.
double RawRngEntry() {
  srand(1234u);
  return drand48();
}

}  // namespace rngfix
