# Writes OUTPUT, a header defining SDF_BUILD_COMMIT as `git describe
# --always --dirty` of SOURCE_DIR: the short commit hash, with "-dirty"
# appended when tracked files differ from it ("unknown" outside a git
# checkout).  The file is rewritten only when that stamp changes, so an
# unchanged commit rebuilds nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> -P build_commit.cmake
execute_process(
  COMMAND git describe --always --dirty
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT commit)
  set(commit "unknown")
endif()
set(content "#define SDF_BUILD_COMMIT \"${commit}\"\n")
set(previous "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" previous)
endif()
if(NOT previous STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
