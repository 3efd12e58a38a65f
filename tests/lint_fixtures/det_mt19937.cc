// Fixture: one det-raw-rng violation (mt19937). Never compiled.
#include <random>

unsigned long StdlibDraw() {
  std::mt19937 generator{42};
  return generator.operator()();
}
