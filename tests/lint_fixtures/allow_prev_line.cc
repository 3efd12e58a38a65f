#include <cstdlib>

// Fixture: an allow on the line ABOVE the violation suppresses it (the
// same-line form is covered by suppressed.cc).
int DrawSuppressed() {
  // fablint:allow(det-raw-rng)
  return std::rand();
}
