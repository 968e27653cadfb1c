// Shared helpers for the reproduction benches: each binary prints the
// paper row/series it regenerates next to our model's values, so
// `./bench_x` alone shows the full comparison.
#pragma once

#include <cstdio>
#include <string>

namespace dejavu::bench {

inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("-- %s --\n", title.c_str());
}

}  // namespace dejavu::bench
