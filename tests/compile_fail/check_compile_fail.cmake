# Runs `cmake --build BUILD_DIR --target TARGET` and passes only when the
# build fails with one nodiscard error on each line of SOURCE that ends in
# `// expect: nodiscard error`, and with no other error. A build that
# succeeds, an error on an unmarked line, or any other error (a missing
# header, a syntax slip) fails the test.
#
#   cmake -D BUILD_DIR=<dir> -D TARGET=<target> -D SOURCE=<file.cc>
#         -P check_compile_fail.cmake

# One list element per line of `text`. `;`, `[` and `]` would change how
# CMake splits a list, so they become `_` first; no pattern below needs
# them.
function(split_lines text out)
  string(REGEX REPLACE "[][;]" "_" text "${text}")
  string(REPLACE "\n" ";" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

get_filename_component(name "${SOURCE}" NAME)
string(REPLACE "." "\\." name_re "${name}")

file(READ "${SOURCE}" source_text)
split_lines("${source_text}" source_lines)
set(expected "")
set(n 0)
foreach(row IN LISTS source_lines)
  math(EXPR n "${n} + 1")
  if(row MATCHES "// expect: nodiscard error$")
    list(APPEND expected ${n})
  endif()
endforeach()
if(NOT expected)
  message(FATAL_ERROR "${SOURCE} marks no line `// expect: nodiscard error`")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${BUILD_DIR}" --target ${TARGET}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "${TARGET} compiled: a discarded Status/Result was accepted\n${out}")
endif()

# Colour codes, if the compiler emits any, would split `error:` apart.
string(ASCII 27 esc)
string(REGEX REPLACE "${esc}\\[[0-9;]*[mK]" "" out "${out}")
split_lines("${out}" out_lines)
set(rejected "")
set(unexpected "")
foreach(row IN LISTS out_lines)
  if(row MATCHES "${name_re}:([0-9]+):[0-9]+: error: .*nodiscard")
    list(APPEND rejected ${CMAKE_MATCH_1})
  elseif(row MATCHES "error:")
    string(APPEND unexpected "\n  ${row}")
  endif()
endforeach()

# Both lists sorted the same way compare equal exactly when every marked
# line drew one error and no other line did.
list(SORT expected)
list(SORT rejected)
if(NOT unexpected STREQUAL "" OR NOT expected STREQUAL rejected)
  message(FATAL_ERROR
          "expected one nodiscard error on each of lines [${expected}] of "
          "${name}, got [${rejected}]; other errors:${unexpected}\n"
          "--- build output ---\n${out}")
endif()
list(LENGTH expected count)
message(STATUS "${name}: all ${count} discards rejected with a nodiscard error")
