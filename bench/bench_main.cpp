// The one main of every bench: see bench_main in bench/bench_util.hpp.
#include <exception>
#include <iostream>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  try {
    return bench_main(hetsched::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
