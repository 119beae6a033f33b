// CWD-independent resolution of in-tree data files (reference tables, test
// goldens). ctest and cirrus_bench may run from any working directory, so
// nothing in the repo loads committed data through a relative path:
// everything goes through these helpers, which resolve against the source
// tree the binary was configured from (overridable by environment for
// installed/relocated use).
#pragma once

#include <string>

namespace cirrus::valid {

/// The repository root. `CIRRUS_SOURCE_ROOT` env var if set, otherwise the
/// CMake source directory baked in at configure time.
std::string source_root();

/// Directory holding the committed paper reference tables (`*.ref`).
/// `CIRRUS_REFERENCE_DIR` env var if set, otherwise
/// `<source_root>/src/valid/reference`.
std::string reference_dir();

/// Directory holding test fixture data (`<source_root>/tests/data`).
std::string test_data_dir();

}  // namespace cirrus::valid
