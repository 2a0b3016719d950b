#!/usr/bin/env sh
# Lints the tree: clang-tidy over the compilation database (when available) plus the
# repo's own static capability verifier (imax_lint) over the example/daemon programs.
#
# Usage: tools/lint.sh [build-dir]
#   build-dir  CMake build tree holding compile_commands.json (default: build)
#
# Degrades gracefully: a missing clang-tidy or compile_commands.json is reported and
# skipped, not fatal — imax_lint still runs. Exit status is non-zero only when a lint
# step that could run found problems.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"${repo_root}/build"}
status=0

# --- clang-tidy over src/ and tools/ -------------------------------------------------
tidy_bin=$(command -v clang-tidy || true)
if [ -z "${tidy_bin}" ]; then
  echo "lint.sh: clang-tidy not found on PATH — skipping C++ static analysis"
elif [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "lint.sh: ${build_dir}/compile_commands.json missing — configure with cmake first"
else
  echo "lint.sh: running clang-tidy (config: .clang-tidy)"
  find "${repo_root}/src" "${repo_root}/tools" -name '*.cc' -print | while read -r file; do
    "${tidy_bin}" -p "${build_dir}" --quiet "${file}" || echo "TIDY-FAIL ${file}"
  done > "${build_dir}/clang-tidy.log" 2>&1
  if grep -q 'TIDY-FAIL\|warning:\|error:' "${build_dir}/clang-tidy.log"; then
    echo "lint.sh: clang-tidy reported findings — see ${build_dir}/clang-tidy.log"
    status=1
  else
    echo "lint.sh: clang-tidy clean"
  fi
fi

# --- imax_lint: static capability verification of ISA programs -----------------------
if [ -x "${build_dir}/tools/imax_lint" ]; then
  echo "lint.sh: running imax_lint"
  if ! "${build_dir}/tools/imax_lint"; then
    echo "lint.sh: imax_lint failed"
    status=1
  fi
else
  echo "lint.sh: ${build_dir}/tools/imax_lint not built — run: cmake --build ${build_dir}"
fi

exit "${status}"
