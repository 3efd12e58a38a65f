// Fixture: zero reported violations — each banned construct carries a
// fablint:allow suppression (same-line and preceding-line forms, plus a
// comma-separated list). Never compiled.
#include <cstdlib>
#include <ctime>

int SameLineSuppression() {
  return std::rand();  // fablint:allow(det-raw-rng)
}

long PrecedingLineSuppression() {
  // fablint:allow(det-time)
  return static_cast<long>(time(nullptr));
}

int* ListSuppression() {
  // fablint:allow(safety-float-accum, hygiene-new-delete)
  return new int(7);
}
