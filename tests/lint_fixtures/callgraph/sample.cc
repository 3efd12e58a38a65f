// Fixture: --callgraph-dump golden input. A free helper, an inline
// member (displayed Widget::Grow), an entry point, and one undefined
// callee (flagged "??" in the dump). Never compiled.

namespace dumpfix {

int HelperDepth(int v) { return v + 1; }

class Widget {
 public:
  int Grow(int v) { return HelperDepth(v); }
};

// Entry point: calls the member and an undefined function.
int DumpRootEntry(Widget& w) {
  return w.Grow(ExternalSeed());
}

}  // namespace dumpfix
