/**
 * @file
 * Kernel catalogue: one table that parses, checks and builds kernels
 * from textual specs.
 *
 * A spec is "<name>" or "<name>:key=value,key=value", e.g.
 * "daxpy:n=65536" or "dgemm-blocked:n=256,block=32". A value is plain
 * decimal digits that fit in uint64_t (no sign, no blanks); a key left
 * out takes its default (kernelHelp() shows them). Every size is >= 1,
 * stencil3's n >= 16 and pointer-chase's nodes >= 2; dgemm-blocked's
 * block and pointer-chase's hops may be 0, which picks them
 * automatically. fft's n must be a power of two >= 4 and spmv-csr's nnz
 * (per row) <= rows. A spec's operands may take at most
 * kMaxFootprintBytes (1 GiB, inclusive). Unknown names, unknown or
 * repeated keys, empty items and items without '=' are rejected too.
 * Every rejection calls fatal() naming the kernel and the key (user
 * error). Parsing allocates no operands.
 *
 * "trace:file=<path>" replays a recorded access stream. The path is
 * taken verbatim (it may hold ',' and '='); parsing opens the file's
 * header, so an unreadable trace is rejected there.
 */

#ifndef RFL_KERNELS_REGISTRY_HH
#define RFL_KERNELS_REGISTRY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernel.hh"

namespace rfl::kernels
{

/** Largest operand footprint a spec may describe (inclusive). */
inline constexpr uint64_t kMaxFootprintBytes = uint64_t{1} << 30;

/** A kernel's key values, in its descriptor's key order. */
using KernelValues = std::array<uint64_t, 2>;

/** One size parameter; a null name marks an unused slot. */
struct KernelKey
{
    const char *name;
    uint64_t defaultValue;
    uint64_t minimum; ///< checked on values the text gives
};

/** One catalogue entry: what validation needs, without building. */
struct KernelDescriptor
{
    const char *name;
    const char *help;
    std::array<KernelKey, 2> keys;
    bool parallelizable;
    /** Operand bytes, saturating at UINT64_MAX instead of wrapping;
     *  equals the built kernel's workingSetBytes(). */
    uint64_t (*footprintBytes)(const KernelValues &);
    /** Rule across keys, or nullptr: @return "" or what is wrong. */
    std::string (*check)(const KernelValues &);
    std::unique_ptr<Kernel> (*make)(const KernelValues &);
};

/** A spec that passed every check. */
struct KernelSpec
{
    const KernelDescriptor *kernel = nullptr; ///< nullptr: trace replay
    KernelValues values{};                    ///< defaults filled in
    std::string traceFile;                    ///< path of a trace replay

    bool parallelizable() const { return kernel && kernel->parallelizable; }
    /** 0 for a trace replay, which streams its file. */
    uint64_t
    footprintBytes() const
    {
        return kernel ? kernel->footprintBytes(values) : 0;
    }
    /** @return the kernel, with its operands allocated. */
    std::unique_ptr<Kernel> make() const;
};

/** The catalogue, in help order. */
std::span<const KernelDescriptor> kernelCatalogue();

/** Parse and check @p text (see file comment); fatal() on error. */
KernelSpec parseKernelSpec(const std::string &text);

/** @return a new kernel built from @p spec: parseKernelSpec + make. */
std::unique_ptr<Kernel> createKernel(const std::string &spec);

/** @return the catalogue's kernel names (trace replay excluded). */
std::vector<std::string> kernelNames();

/** @return one line per kernel: its default spec and what it does. */
std::vector<std::string> kernelHelp();

} // namespace rfl::kernels

#endif // RFL_KERNELS_REGISTRY_HH
