// Fixture: one det-raw-rng violation (random_device). Never compiled.
#include <random>

unsigned AmbientSeed() {
  std::random_device entropy;
  return entropy.operator()();
}
