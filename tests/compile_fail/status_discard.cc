// Compile-fail test: the build must reject every line marked
// `expect: nodiscard error` below with a nodiscard error, and nothing
// else may fail. The functions carry no attribute of their own, so each
// error comes from the class-level [[nodiscard]] on fab::Status and
// fab::Result (src/util/status.h) together with -Werror=unused-result
// (top-level CMakeLists.txt); dropping either makes this file compile and
// the test fail. Built only through the EXCLUDE_FROM_ALL target
// status_discard_compile_fail; ctest's status_discard_rejected entry runs
// that build through check_compile_fail.cmake.
#include "util/status.h"

namespace status_discard {

fab::Status Poke();
fab::Result<int> Fetch();

struct Store {
  fab::Status Save();
  fab::Result<int> Load();
};

void DiscardEveryForm(Store& store, Store* ptr, bool flag) {
  Poke();  // expect: nodiscard error
  Fetch();  // expect: nodiscard error
  store.Save();  // expect: nodiscard error
  store.Load();  // expect: nodiscard error
  ptr->Save();  // expect: nodiscard error
  ptr->Load();  // expect: nodiscard error
  if (flag) Poke();  // expect: nodiscard error
  if (flag) Fetch();  // expect: nodiscard error
  [] { Poke(); }();  // expect: nodiscard error
  [] { Fetch(); }();  // expect: nodiscard error
  // The one escape: an explicit (void) with a comment saying why the
  // failure is ignorable. These two lines must compile.
  (void)Poke();
  (void)Fetch();
}

}  // namespace status_discard
