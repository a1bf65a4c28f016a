#include "kernels/registry.hh"

#include <algorithm>
#include <utility>

#include "kernels/daxpy.hh"
#include "kernels/dgemm.hh"
#include "kernels/dgemv.hh"
#include "kernels/dot.hh"
#include "kernels/fft.hh"
#include "kernels/pchase.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"
#include "kernels/strided.hh"
#include "kernels/sum.hh"
#include "kernels/triad.hh"
#include "support/logging.hh"
#include "trace/trace_file.hh"
#include "trace/trace_kernel.hh"

namespace rfl::kernels
{

namespace
{

/** Saturating a * b + c, so a footprint never wraps below the cap. */
uint64_t
mulAdd(uint64_t a, uint64_t b, uint64_t c = 0)
{
    uint64_t r;
    if (__builtin_mul_overflow(a, b, &r) || __builtin_add_overflow(r, c, &r))
        return UINT64_MAX;
    return r;
}

/** @p B operand bytes per element of key 0 (per n^2 if @p Square). */
template <uint64_t B, bool Square = false>
uint64_t
bytesPer(const KernelValues &v)
{
    return mulAdd(B, Square ? mulAdd(v[0], v[0]) : v[0]);
}

template <typename K, auto... Extra>
std::unique_ptr<Kernel>
make1(const KernelValues &v)
{
    return std::make_unique<K>(v[0], Extra...);
}

template <typename K>
std::unique_ptr<Kernel>
make2(const KernelValues &v)
{
    return std::make_unique<K>(v[0], v[1]);
}

/** dgemv's m left out is stored as 0 (below its minimum, so no text
 *  can give it) and means m = n. */
uint64_t
dgemvRows(const KernelValues &v)
{
    return v[0] == 0 ? v[1] : v[0];
}

const KernelDescriptor kCatalogue[] = {
    {"daxpy", "y = a*x + y", {{{"n", 1 << 16, 1}}}, true, bytesPer<16>,
     nullptr, make1<Daxpy>},
    {"dot", "s = x . y", {{{"n", 1 << 16, 1}}}, true, bytesPer<16>,
     nullptr, make1<Dot>},
    {"triad", "a = b + s*c (regular stores)", {{{"n", 1 << 16, 1}}},
     true, bytesPer<24>, nullptr, make1<Triad, false>},
    {"triad-nt", "a = b + s*c (non-temporal stores)",
     {{{"n", 1 << 16, 1}}}, true, bytesPer<24>, nullptr,
     make1<Triad, true>},
    {"sum", "s = sum(x)", {{{"n", 1 << 16, 1}}}, true, bytesPer<8>,
     nullptr, make1<SumReduction>},
    {"stencil3", "3-point stencil", {{{"n", 1 << 16, 16}}}, true,
     bytesPer<16>, nullptr, make1<Stencil3>},
    {"dgemv", "y = A*x + y; m=<rows> defaults to n",
     {{{"m", 0, 1}, {"n", 512, 1}}}, true,
     [](const KernelValues &v) {
         const uint64_t m = dgemvRows(v);
         return mulAdd(8, mulAdd(m, v[1], mulAdd(1, m, v[1])));
     },
     nullptr,
     [](const KernelValues &v) -> std::unique_ptr<Kernel> {
         return std::make_unique<Dgemv>(dgemvRows(v), v[1]);
     }},
    {"dgemm-naive", "C += A*B, triple loop", {{{"n", 128, 1}}}, true,
     bytesPer<24, true>, nullptr, make1<DgemmNaive>},
    {"dgemm-blocked", "C += A*B, tiled; block=0 picks 32",
     {{{"n", 128, 1}, {"block", 0, 0}}}, true, bytesPer<24, true>,
     nullptr, make2<DgemmBlocked>},
    {"dgemm-opt", "C += A*B, register-blocked", {{{"n", 128, 1}}}, true,
     bytesPer<24, true>, nullptr, make1<DgemmRegBlocked>},
    {"fft", "in-place radix-2 complex FFT", {{{"n", 1 << 12, 1}}}, false,
     bytesPer<24>,
     [](const KernelValues &v) -> std::string {
         if (v[0] >= 4 && (v[0] & (v[0] - 1)) == 0)
             return "";
         return "key 'n' must be a power of two >= 4, got " +
                std::to_string(v[0]);
     },
     make1<Fft>},
    {"spmv-csr", "y = A*x, CSR with nnz nonzeros per row",
     {{{"rows", 4096, 1}, {"nnz", 16, 1}}}, true,
     [](const KernelValues &v) { // vals+cols per nonzero, rowptr, x, y
         return mulAdd(12, mulAdd(v[0], v[1]), mulAdd(20, v[0], 4));
     },
     [](const KernelValues &v) -> std::string {
         if (v[1] <= v[0])
             return "";
         return "key 'nnz' must be <= rows (" + std::to_string(v[0]) +
                "), got " + std::to_string(v[1]);
     },
     make2<SpmvCsr>},
    {"strided-sum", "strided read probe, stride in doubles",
     {{{"n", 65536, 1}, {"stride", 8, 1}}}, true,
     [](const KernelValues &v) { return mulAdd(8, mulAdd(v[0], v[1])); },
     nullptr, make2<StridedSum>},
    {"pointer-chase", "dependent-load latency probe; hops=0 is nodes",
     {{{"nodes", 4096, 2}, {"hops", 0, 0}}}, false, bytesPer<64>,
     nullptr, make2<PointerChase>},
};

/** @return whether @p s is decimal digits that fit in uint64_t. */
bool
parseDecimal(const std::string &s, uint64_t *out)
{
    *out = 0;
    for (const char c : s)
        if (c < '0' || c > '9' || __builtin_mul_overflow(*out, 10, out) ||
            __builtin_add_overflow(*out, c - '0', out))
            return false;
    return !s.empty();
}

} // namespace

std::unique_ptr<Kernel>
KernelSpec::make() const
{
    if (kernel == nullptr)
        return std::make_unique<trace::TraceKernel>(traceFile);
    return kernel->make(values);
}

std::span<const KernelDescriptor>
kernelCatalogue()
{
    return kCatalogue;
}

KernelSpec
parseKernelSpec(const std::string &text)
{
    const size_t colon = text.find(':');
    const std::string name = text.substr(0, colon);
    const std::string params =
        colon == std::string::npos ? std::string() : text.substr(colon + 1);
    KernelSpec spec;

    // Trace replay takes a file path, which may contain commas and '='
    // characters, so it bypasses the key=value parameter parser.
    if (name == "trace") {
        if (params.rfind("file=", 0) != 0 || params.size() == 5)
            fatal("trace kernel spec must be 'trace:file=<path>', got "
                  "'%s'",
                  text.c_str());
        spec.traceFile = params.substr(5);
        trace::TraceReader reader;
        if (!reader.open(spec.traceFile))
            fatal("%s", reader.error().c_str());
        return spec;
    }

    for (const KernelDescriptor &d : kCatalogue)
        if (name == d.name)
            spec.kernel = &d;
    if (spec.kernel == nullptr)
        fatal("unknown kernel '%s'", name.c_str());
    const KernelDescriptor &d = *spec.kernel;
    spec.values = {d.keys[0].defaultValue, d.keys[1].defaultValue};

    // One "key=value" item per comma; "daxpy:" and "daxpy:n=1," hold an
    // empty item, which has no '='.
    std::array<bool, 2> given{};
    for (size_t pos = 0; colon != std::string::npos && pos <= params.size();) {
        const size_t end = std::min(params.find(',', pos), params.size());
        const std::string item = params.substr(pos, end - pos);
        pos = end + 1;
        const size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("kernel '%s': bad parameter '%s' (expected key=value)",
                  d.name, item.c_str());
        const std::string key = item.substr(0, eq);
        const auto k = std::find_if(
            d.keys.begin(), d.keys.end(),
            [&](const KernelKey &c) { return c.name && key == c.name; });
        if (k == d.keys.end())
            fatal("kernel '%s': unknown key '%s' (allowed: %s%s%s)", d.name,
                  key.c_str(), d.keys[0].name, d.keys[1].name ? ", " : "",
                  d.keys[1].name ? d.keys[1].name : "");
        const size_t i = static_cast<size_t>(k - d.keys.begin());
        if (std::exchange(given[i], true))
            fatal("kernel '%s': repeated key '%s'", d.name, k->name);
        if (!parseDecimal(item.substr(eq + 1), &spec.values[i]))
            fatal("kernel '%s': key '%s' needs an unsigned decimal below "
                  "2^64, got '%s'",
                  d.name, k->name, item.c_str() + eq + 1);
        if (spec.values[i] < k->minimum)
            fatal("kernel '%s': key '%s' must be >= %llu, got %llu", d.name,
                  k->name, static_cast<unsigned long long>(k->minimum),
                  static_cast<unsigned long long>(spec.values[i]));
    }

    const std::string problem = d.check ? d.check(spec.values) : "";
    if (!problem.empty())
        fatal("kernel '%s': %s", d.name, problem.c_str());
    const uint64_t bytes = spec.footprintBytes();
    if (bytes > kMaxFootprintBytes)
        fatal("kernel '%s': '%s' needs %s operand bytes, over the "
              "%llu-byte (1 GiB) cap",
              d.name, params.c_str(),
              bytes == UINT64_MAX ? "over 2^64"
                                  : std::to_string(bytes).c_str(),
              static_cast<unsigned long long>(kMaxFootprintBytes));
    return spec;
}

std::unique_ptr<Kernel>
createKernel(const std::string &spec)
{
    return parseKernelSpec(spec).make();
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const KernelDescriptor &d : kCatalogue)
        names.emplace_back(d.name);
    return names;
}

std::vector<std::string>
kernelHelp()
{
    std::vector<std::string> help;
    for (const KernelDescriptor &d : kCatalogue) {
        std::string line = d.name;
        char sep = ':';
        for (const KernelKey &k : d.keys) {
            // dgemv's m has no default of its own (see dgemvRows).
            if (k.name == nullptr || k.defaultValue < k.minimum)
                continue;
            line += sep;
            line += k.name;
            line += '=' + std::to_string(k.defaultValue);
            sep = ',';
        }
        line.resize(std::max<size_t>(line.size() + 2, 34), ' ');
        help.push_back(line + d.help);
    }
    help.push_back("trace:file=<path>                 replay a recorded "
                   "access-stream trace");
    return help;
}

} // namespace rfl::kernels
