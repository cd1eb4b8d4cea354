// google-benchmark microbenchmarks of the library's CPU-bound kernels:
// GF(256) parity math, CRC32, JSON index files and UDF serialization.
// These bound the real (host) cost of the parity generation and recovery
// paths; all other benches measure simulated time instead.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/gf256.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/olfs/index_file.h"
#include "src/udf/image.h"
#include "src/udf/serializer.h"

namespace {

using namespace ros;

std::vector<std::uint8_t> RandomBuffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

void BM_XorParity(benchmark::State& state) {
  auto a = RandomBuffer(static_cast<std::size_t>(state.range(0)), 1);
  auto acc = RandomBuffer(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    gf256::XorAcc(acc, a);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XorParity)->Arg(64 << 10)->Arg(1 << 20);

void BM_GfMulAccQParity(benchmark::State& state) {
  auto a = RandomBuffer(static_cast<std::size_t>(state.range(0)), 3);
  auto acc = RandomBuffer(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    gf256::MulAcc(acc, gf256::Pow2(7), a);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GfMulAccQParity)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  auto data = RandomBuffer(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(1 << 20);

void BM_IndexFileRoundTrip(benchmark::State& state) {
  olfs::IndexFile index("/archive/2016/records/file.dat",
                        olfs::EntryType::kFile);
  for (int v = 0; v < 15; ++v) {
    olfs::VersionEntry entry;
    entry.location = olfs::LocationKind::kDisc;
    entry.total_size = 123456789;
    entry.parts.push_back({"img-001234", 123456789});
    index.AddVersion(std::move(entry), 15);
  }
  const std::string json = index.ToJson();
  for (auto _ : state) {
    auto parsed = olfs::IndexFile::FromJson(json);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_IndexFileRoundTrip);

void BM_UdfSerializeImage(benchmark::State& state) {
  udf::Image image("bench-img", 25ull * 1000 * 1000 * 1000);
  auto payload = RandomBuffer(4096, 6);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    ROS_CHECK(image.AddFile("/dir" + std::to_string(i % 16) + "/f" +
                                std::to_string(i),
                            payload, 4096)
                  .ok());
  }
  for (auto _ : state) {
    auto bytes = udf::Serializer::Serialize(image);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_UdfSerializeImage)->Arg(100)->Arg(1000);

void BM_UdfParseImage(benchmark::State& state) {
  udf::Image image("bench-img", 25ull * 1000 * 1000 * 1000);
  auto payload = RandomBuffer(4096, 7);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    ROS_CHECK(image.AddFile("/dir" + std::to_string(i % 16) + "/f" +
                                std::to_string(i),
                            payload, 4096)
                  .ok());
  }
  auto bytes = udf::Serializer::Serialize(image);
  for (auto _ : state) {
    auto parsed = udf::Serializer::Parse(bytes);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_UdfParseImage)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
