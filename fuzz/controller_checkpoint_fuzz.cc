// Fuzz target: the controller checkpoint (§4.2) that
// Maintenance::RestoreFromCheckpoint decodes with DecodeCheckpoint.
//
// Build with -DROS_FUZZ=ON. Links against libFuzzer when the compiler
// provides -fsanitize=fuzzer, otherwise against the standalone mutational
// driver (fuzz/standalone_driver.cc). Seed corpus: fuzz/corpus/checkpoint/.
#include <cstddef>
#include <cstdint>

#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ros::fuzz::FuzzControllerCheckpoint(data, size);
  return 0;
}
