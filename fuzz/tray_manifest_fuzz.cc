// Fuzz target: the cluster's persisted burned-tray manifests (DESIGN.md
// §5k), which Cluster::RecoverRack decodes with DecodeTrayManifest.
//
// Build with -DROS_FUZZ=ON. Links against libFuzzer when the compiler
// provides -fsanitize=fuzzer, otherwise against the standalone mutational
// driver (fuzz/standalone_driver.cc). Seed corpus: fuzz/corpus/trays/.
#include <cstddef>
#include <cstdint>

#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ros::fuzz::FuzzTrayManifest(data, size);
  return 0;
}
