// ros_prof: a sampling CPU profiler that sees every frame, libc's
// memcpy/memset included, which gprof's -pg instrumentation never counts.
// It needs no rebuild of the profiled program: preload it.
//
//   export PROF=build/tools/libros_prof.so
//   LD_PRELOAD=$PROF .bench_build/rosbench/rosbench --workload ingest
//       --seed 1 --seconds 5 --trace 0       (one command line)
//   python3 tools/ros_prof_report.py ros_prof.<pid>.txt
//
// At load it arms ITIMER_PROF: one SIGPROF per millisecond of the
// process's CPU time. The handler records the interrupted call stack with
// glibc's backtrace(), starting at the interrupted instruction. At exit
// it writes ros_prof.<pid>.txt to the working directory:
//
//   E <path of the executable> dropped=<samples past the buffer>
//   S <hex pc> <hex return address> ...     one line per sample, innermost
//   M                                        first; then /proc/self/maps
//
// and tools/ros_prof_report.py symbolizes it offline. Preload it into the
// benchmark binary itself, not a driver script: every process that loads
// it writes its own file. The buffer holds about 260 s of CPU time.
// Caveat: backtrace() unwinds with the
// dynamic loader's lock, so a program that unwinds (throws) or dlopens
// while running may deadlock under the sampler; rosbench does neither.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr int kMaxDepth = 64;
// Room for 256 Ki samples of up to kMaxDepth frames, mapped lazily.
constexpr std::size_t kSlots = std::size_t{1} << 18;
constexpr std::size_t kSlotWords = kMaxDepth + 1;  // depth, then frames

std::uint64_t* g_slots = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};

void OnProf(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kSlots) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  void* frames[kMaxDepth + 8];
  const int depth = backtrace(frames, kMaxDepth + 8);
  const auto pc = static_cast<std::uint64_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
  // Drop the handler's own frames: keep from the interrupted pc on, or
  // only the pc if the unwinder did not get through the signal frame.
  int first = 0;
  while (first < depth &&
         reinterpret_cast<std::uint64_t>(frames[first]) != pc) {
    ++first;
  }
  std::uint64_t* out = g_slots + slot * kSlotWords;
  std::uint64_t n = 0;
  if (first == depth) {
    out[1 + n++] = pc;
  } else {
    for (int i = first; i < depth && n < kMaxDepth; ++i) {
      out[1 + n++] = reinterpret_cast<std::uint64_t>(frames[i]);
    }
  }
  out[0] = n;
  errno = saved_errno;
}

void CopyMaps(std::FILE* out) {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return;
  }
  char line[4096];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    std::fputs(line, out);
  }
  std::fclose(maps);
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kSlots * kSlotWords * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    return;
  }
  g_slots = static_cast<std::uint64_t*>(mem);
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action = {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void Stop() {
  if (g_slots == nullptr) {
    return;
  }
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof(path), "ros_prof.%d.txt",
                static_cast<int>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  char exe[4096] = {};
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  std::fprintf(out, "E %s dropped=%zu\n", len > 0 ? exe : "?",
               g_dropped.load());
  const std::size_t taken = g_next.load() < kSlots ? g_next.load() : kSlots;
  for (std::size_t s = 0; s < taken; ++s) {
    const std::uint64_t* slot = g_slots + s * kSlotWords;
    std::fputc('S', out);
    for (std::uint64_t i = 0; i < slot[0]; ++i) {
      std::fprintf(out, " %llx",
                   static_cast<unsigned long long>(slot[1 + i]));
    }
    std::fputc('\n', out);
  }
  std::fputs("M\n", out);
  CopyMaps(out);
  std::fclose(out);
}

}  // namespace
