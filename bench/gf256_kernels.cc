// Throughput of the GF(2^8) parity kernels and of CRC-32, each baseline
// tier vs its fast tier, printed as one JSON document so the speedups land
// in the bench trajectory:
//
//   {"buffer_bytes":...,"kernels":[
//     {"kernel":"mulacc","scalar_mb_s":...,"sliced_mb_s":...,
//      "speedup":...,"identical":true}, ...]}
//
// GF(2^8) rows pit the scalar reference against the word-sliced /
// split-nibble tier. The crc32 row pits slice-by-8 (scalar_mb_s) against
// Crc32 as callers get it (sliced_mb_s): the carry-less-multiply fold
// where the CPU has PCLMULQDQ, else slice-by-8 again (speedup ~1).
//
// Each row also runs a differential check (same inputs through both tiers
// must produce identical output), so a reported speedup can never come
// from a wrong kernel; the process exits 1 when any row is not identical.
// Host wall-clock time, not simulated time.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/gf256.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"

namespace {

using namespace ros;
using Buffer = std::vector<std::uint8_t>;

constexpr std::size_t kBufferBytes = 1 << 20;  // 1 MiB per stream
constexpr double kMinSeconds = 0.2;

Buffer RandomBuffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Buffer out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Runs `op` until kMinSeconds of wall clock elapse; returns MB/s of payload
// swept (bytes_per_call per invocation).
double MeasureMbPerSec(std::size_t bytes_per_call,
                       const std::function<void()>& op) {
  // ros_analyze: allow(wallclock): host-side kernel-throughput timing;
  // never feeds simulator state.
  using Clock = std::chrono::steady_clock;
  op();  // warm the tables and the cache
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 8; ++i) {
      op();
    }
    calls += 8;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kMinSeconds);
  return static_cast<double>(calls) * static_cast<double>(bytes_per_call) /
         elapsed / 1e6;
}

struct KernelResult {
  std::string kernel;
  double scalar_mb_s = 0;
  double sliced_mb_s = 0;
  bool identical = false;
};

json::Value ToJson(const KernelResult& r) {
  json::Object o;
  o["kernel"] = r.kernel;
  o["scalar_mb_s"] = r.scalar_mb_s;
  o["sliced_mb_s"] = r.sliced_mb_s;
  o["speedup"] = r.scalar_mb_s > 0 ? r.sliced_mb_s / r.scalar_mb_s : 0.0;
  o["identical"] = r.identical;
  return o;
}

}  // namespace

int main() {
  const Buffer in = RandomBuffer(kBufferBytes, 1);
  const Buffer acc0 = RandomBuffer(kBufferBytes, 2);
  const Buffer q0 = RandomBuffer(kBufferBytes, 3);
  const std::uint8_t coeff = gf256::Pow2(7);
  std::vector<KernelResult> results;

  {
    KernelResult r{.kernel = "xor"};
    Buffer a = acc0;
    Buffer b = acc0;
    gf256::XorAccScalar(a, in);
    gf256::XorAcc(b, in);
    r.identical = a == b;
    r.scalar_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::XorAccScalar(a, in); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::XorAcc(b, in); });
    results.push_back(r);
  }

  {
    KernelResult r{.kernel = "mulacc"};
    Buffer a = acc0;
    Buffer b = acc0;
    gf256::MulAccScalar(a, coeff, in);
    gf256::MulAcc(b, coeff, in);
    r.identical = a == b;
    r.scalar_mb_s = MeasureMbPerSec(
        kBufferBytes, [&] { gf256::MulAccScalar(a, coeff, in); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::MulAcc(b, coeff, in); });
    results.push_back(r);
  }

  {
    // The fused kernel's scalar baseline is what ParityBuilder::Build used
    // to do: one XOR pass for P plus one multiply pass for Q — two sweeps
    // of the member stream. "Payload" is the member bytes, so MB/s is
    // member throughput, directly comparable across variants.
    KernelResult r{.kernel = "pq_fused"};
    Buffer ps = acc0, pf = acc0, qf = q0;
    gf256::XorAccScalar(ps, in);
    Buffer q2(kBufferBytes, 0);
    gf256::MulAccScalar(q2, 2, q0);
    gf256::XorAccScalar(q2, in);  // 2q ^ d, the Horner step
    gf256::PQAcc(pf, qf, in);
    r.identical = pf == ps && qf == q2;
    Buffer p1 = acc0, q1 = q0;
    r.scalar_mb_s = MeasureMbPerSec(kBufferBytes, [&] {
      gf256::XorAccScalar(p1, in);
      gf256::MulAccScalar(q1, coeff, in);
    });
    Buffer p3 = acc0, q3 = q0;
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::PQAcc(p3, q3, in); });
    results.push_back(r);
  }

  {
    // Whole buffers and an unaligned cut whose length leaves a 16-byte
    // tail, through the public entry point and, where the CPU has it,
    // the folding tier called directly.
    KernelResult r{.kernel = "crc32"};
    r.identical = true;
    for (const Buffer* b : {&in, &acc0, &q0}) {
      const std::span<const std::uint8_t> whole(*b);
      for (const auto s : {whole, whole.subspan(3, whole.size() - 10)}) {
        const std::uint32_t want = internal::Crc32SliceBy8(s);
        r.identical = r.identical && Crc32(s) == want;
        if (internal::Crc32ClmulAvailable()) {
          r.identical = r.identical && internal::Crc32Clmul(s, 0) == want;
        }
      }
    }
    volatile std::uint32_t sink = 0;
    r.scalar_mb_s = MeasureMbPerSec(
        kBufferBytes, [&] { sink = sink ^ internal::Crc32SliceBy8(in); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { sink = sink ^ Crc32(in); });
    results.push_back(r);
  }

  json::Object doc;
  doc["buffer_bytes"] = static_cast<std::int64_t>(kBufferBytes);
  json::Array kernels;
  bool all_identical = true;
  for (const KernelResult& r : results) {
    kernels.push_back(ToJson(r));
    all_identical = all_identical && r.identical;
  }
  doc["kernels"] = std::move(kernels);
  bench::AddHostFigures(&doc);
  std::printf("%s\n", json::Value(doc).DumpPretty().c_str());
  return all_identical ? 0 : 1;
}
