// Fixture: two det-pointer-key violations — a pointer-keyed map and a
// sort comparator that orders by raw pointer value. Pointer VALUES are
// fine (they never drive order); only pointer keys and bare pointer
// comparisons are flagged. Scoped mode checks every file under src/.
// Never compiled.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace ptrfix {

struct Series {
  std::string name;
  const Series* parent = nullptr;  // pointer value: not a key, clean
};

// Fixture entry point.
void PtrKeyEntry(std::vector<Series*>& all) {
  std::map<Series*, int> rank;
  for (Series* s : all) rank[s] = 0;
  std::sort(all.begin(), all.end(),
            [](const Series* a, const Series* b) { return a < b; });
}

}  // namespace ptrfix
