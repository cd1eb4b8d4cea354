// Fuzz target: the cluster's persisted routing shards (DESIGN.md §5k),
// which a restarted namespace head reloads with RoutingTable::LoadShard.
//
// Build with -DROS_FUZZ=ON. Links against libFuzzer when the compiler
// provides -fsanitize=fuzzer, otherwise against the standalone mutational
// driver (fuzz/standalone_driver.cc). Seed corpus: fuzz/corpus/routes/.
#include <cstddef>
#include <cstdint>

#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ros::fuzz::FuzzRouteShard(data, size);
  return 0;
}
