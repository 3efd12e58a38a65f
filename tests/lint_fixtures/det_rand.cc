// Fixture: one det-raw-rng violation, a rand() call (line 5). Never compiled.
#include <cstdlib>

int AmbientNoise() {
  return std::rand();
}
