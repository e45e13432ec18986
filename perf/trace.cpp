#include "trace.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <unordered_map>
#include <vector>

namespace mts::perf {
namespace {

// --- sampler ---------------------------------------------------------------

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t* g_pcs = nullptr;
std::atomic<std::size_t> g_sample_count{0};

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  std::uintptr_t pc = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.pc);
#else
  (void)context;
#endif
  const std::size_t i = g_sample_count.load(std::memory_order_relaxed);
  if (g_pcs != nullptr && i < kMaxSamples) {
    g_pcs[i] = pc;
    g_sample_count.store(i + 1, std::memory_order_relaxed);
  }
}

void set_prof_timer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, nullptr);
}

// --- symbolizer --------------------------------------------------------------

struct Symbol {
  std::uintptr_t addr = 0;
  std::uintptr_t size = 0;
  std::string name;
};

/// FUNC symbols of the executable's own `.symtab`, sorted by address.
/// Empty when the file cannot be read or is stripped.
std::vector<Symbol> load_exe_symbols() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::vector<char> img((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  std::vector<Symbol> out;
  Elf64_Ehdr eh{};
  if (img.size() < sizeof eh) return out;
  std::memcpy(&eh, img.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr) || eh.e_shoff > img.size() ||
      eh.e_shnum > (img.size() - eh.e_shoff) / sizeof(Elf64_Shdr)) {
    return out;
  }
  auto section = [&](std::size_t i) {
    Elf64_Shdr sh{};
    std::memcpy(&sh, img.data() + eh.e_shoff + i * sizeof sh, sizeof sh);
    return sh;
  };
  auto in_image = [&](const Elf64_Shdr& sh) {
    return sh.sh_offset <= img.size() &&
           sh.sh_size <= img.size() - sh.sh_offset;
  };
  for (std::size_t i = 0; i < eh.e_shnum; ++i) {
    const Elf64_Shdr symtab = section(i);
    if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= eh.e_shnum) continue;
    const Elf64_Shdr strtab = section(symtab.sh_link);
    if (!in_image(symtab) || !in_image(strtab)) continue;
    const char* strs = img.data() + strtab.sh_offset;
    for (std::size_t k = 0; k < symtab.sh_size / sizeof(Elf64_Sym); ++k) {
      Elf64_Sym s{};
      std::memcpy(&s, img.data() + symtab.sh_offset + k * sizeof s, sizeof s);
      if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
          s.st_name >= strtab.sh_size) {
        continue;
      }
      const char* name = strs + s.st_name;
      out.push_back(Symbol{s.st_value, s.st_size,
                           std::string(name, strnlen(name, strtab.sh_size -
                                                               s.st_name))});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
  return out;
}

/// Load bias of the main executable (non-zero for PIE).
std::uintptr_t exe_bias() {
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* data) {
        *static_cast<std::uintptr_t*>(data) = info->dlpi_addr;
        return 1;  // the first object reported is the executable
      },
      &bias);
  return bias;
}

std::string demangle(const char* name) {
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || d == nullptr) return name;
  std::string out(d);
  std::free(d);
  return out;
}

bool is_alloc_name(std::string_view n) {
  static constexpr std::array<std::string_view, 16> kNames{
      "malloc",        "free",           "calloc",        "realloc",
      "cfree",         "__libc_malloc",  "__libc_free",   "__libc_calloc",
      "__libc_realloc", "_int_malloc",   "_int_free",     "_int_realloc",
      "malloc_consolidate", "aligned_alloc", "posix_memalign", "memalign"};
  if (n.starts_with("operator new") || n.starts_with("operator delete")) {
    return true;
  }
  return std::find(kNames.begin(), kNames.end(), n) != kNames.end();
}

constexpr std::array<std::string_view, 13> kModules{
    "sim",      "phy",      "mac",     "net",     "routing",
    "core",     "tcp",      "mobility", "security", "traffic",
    "stats",    "harness",  "perf"};

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

std::string classify_symbol(std::string_view demangled) {
  std::string flat;
  int depth = 0;
  for (const char c : demangled) {
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (depth > 0) --depth;
    } else if (depth == 0) {
      flat.push_back(c);
    }
  }
  const std::string_view name(flat);
  if (is_alloc_name(name)) return "alloc";
  for (std::size_t pos = name.rfind("mts::"); pos != std::string_view::npos;
       pos = pos == 0 ? std::string_view::npos : name.rfind("mts::", pos - 1)) {
    const bool word_start =
        pos == 0 || !(std::isalnum(static_cast<unsigned char>(name[pos - 1])) ||
                      name[pos - 1] == '_');
    if (!word_start) continue;
    const std::size_t begin = pos + 5;
    const std::size_t end = name.find("::", begin);
    if (end == std::string_view::npos) break;
    const std::string_view module = name.substr(begin, end - begin);
    if (std::find(kModules.begin(), kModules.end(), module) != kModules.end()) {
      return std::string(module);
    }
    break;
  }
  // The one standard-library engine the simulator drives directly: it
  // sits behind sim::Rng, and its names carry no mts:: qualifier.
  if (name.find("std::mersenne_twister_engine<") != std::string_view::npos) {
    return "sim";
  }
  return "unattributed";
}

void install_sampler() {
  if (g_pcs == nullptr) g_pcs = new std::uintptr_t[kMaxSamples];
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

ProfSpan::ProfSpan(bool enabled) : enabled_(enabled) {
  if (enabled_) set_prof_timer(1000);
}

ProfSpan::~ProfSpan() {
  if (enabled_) set_prof_timer(0);
}

std::map<std::string, std::uint64_t> attribute_samples() {
  static const std::vector<Symbol> symbols = load_exe_symbols();
  static const std::uintptr_t bias = exe_bias();
  static const void* exe_base = [] {
    Dl_info self{};
    dladdr(reinterpret_cast<void*>(&install_sampler), &self);
    return self.dli_fbase;
  }();
  std::unordered_map<std::uintptr_t, std::string> layer_of;  // by symbol
  std::map<std::string, std::uint64_t> buckets;
  const std::size_t n = g_sample_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    const std::uintptr_t off = pc - bias;
    const auto next = std::upper_bound(
        symbols.begin(), symbols.end(), off,
        [](std::uintptr_t a, const Symbol& s) { return a < s.addr; });
    if (next != symbols.begin()) {
      const Symbol& s = *std::prev(next);
      if (off - s.addr < std::max<std::uintptr_t>(s.size, 1)) {
        auto [slot, fresh] = layer_of.try_emplace(s.addr);
        if (fresh) slot->second = classify_symbol(demangle(s.name.c_str()));
        ++buckets[slot->second];
        continue;
      }
    }
    // Shared libraries: dladdr names only exported symbols, so libc's
    // internal allocator helpers land in `libc`, not `alloc`.
    Dl_info info{};
    if (pc != 0 && dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_fbase != exe_base) {
      const bool alloc = info.dli_sname != nullptr &&
                         classify_symbol(demangle(info.dli_sname)) == "alloc";
      ++buckets[alloc ? "alloc" : "libc"];
      continue;
    }
    ++buckets["unattributed"];
  }
  return buckets;
}

void count_allocations(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return AllocCounts{g_alloc_count.load(std::memory_order_relaxed),
                     g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace mts::perf

// Replaced global allocation functions: plain malloc, counted only while
// `count_allocations(true)`.  The default operator delete (free) pairs
// with them.
void* operator new(std::size_t n) { return mts::perf::counted_new(n); }
void* operator new[](std::size_t n) { return mts::perf::counted_new(n); }
