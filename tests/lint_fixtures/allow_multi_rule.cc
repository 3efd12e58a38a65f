#include <cstdlib>

// Fixture: one preceding-line allow list with TWO rule ids suppresses
// both findings on the next line.
int* MakeLeakyRandom() {
  // fablint:allow(det-raw-rng, hygiene-new-delete)
  return new int(std::rand());
}
