/**
 * absim benchmark: one closed-loop client that sweeps one figure
 * at a time through libabsim's public API and reports host-time metrics,
 * scaled to the host's reference speed (see SpeedProbe).
 *
 *   absim_bench --workload NAME --seed N --seconds S --trace 0|1
 *               [--tiny] [--reference-dir DIR] [--out-dir DIR]
 *               [--rev REV] [--src-hash HASH]
 *   absim_bench --workload NAME --write-reference FILE --seeds A,B,...
 *   absim_bench --self-test [--out-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics, measured from outside the library: spans around
 * the benchmark's own calls into each layer's public functions, the
 * layers' public counters, and differential sweeps (checks off, one
 * model axis swapped).  Every simulated cell is checked against a
 * pinned reference (or, for seeds without one, against the run's own
 * first observation: execution vs replay identity and determinism).
 * The last stdout line is the JSON result; see README.md for every
 * workload and metric.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "core/journal.hh"
#include "core/run_context.hh"
#include "machines/registry.hh"
#include "sim/fiber.hh"
#include "trace_replay/format.hh"
#include "trace_replay/replay.hh"

namespace fs = std::filesystem;
using namespace absim;

namespace {

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Host seconds since the process started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------- host speed

/**
 * Gauges how fast the host runs simulator-like code at this moment.
 *
 * On a shared host the simulator's own speed swings by up to 2x within
 * seconds and stays low for minutes, as other tenants load the shared
 * core and caches; a loop of arithmetic hardly notices (the calibration
 * loop slows by 10% when a sweep slows by 50%).  The probe is a fixed
 * reference workload of the simulator's kind, frozen here and never
 * linked to the library: a priority-queue event loop over 32
 * processors, each with a direct-mapped tag array, and a sharer-mask
 * directory, over a few MB with half of the references in a per-
 * processor hot region.  Run between cells, it slows down with the
 * cells, if somewhat less: a cell's host time grows as about the
 * kLoadExponent-th power of the probe's time around it.  So the cell's
 * host time × (kReferenceSeconds / probe time)^kLoadExponent is its
 * time at the host's reference speed.  benchmark/README.md ("Reference speed", "Steadiness") says
 * how the probe was chosen and what it does to the spread over runs.
 */
class SpeedProbe
{
  public:
    /** One slice's host seconds on that host, unloaded (about the
     *  fastest slice seen there). */
    static constexpr double kReferenceSeconds = 0.005;
    /** log(sweep time) / log(probe time) as load changes, fitted on
     *  that host over the sweeps of all three workloads (1.28-1.34). */
    static constexpr double kLoadExponent = 1.3;

    SpeedProbe()
        : tags_(std::size_t(kProcs) * kLines, kEmpty), dir_(kBlocks)
    {
        for (std::uint32_t p = 0; p < kProcs; ++p) {
            rng_[p] = 0x9e3779b97f4a7c15ull * (p + 1);
            queue_.push({p, p});
        }
        run(kBlocks); // Into its steady state: tables filled.
    }

    /** Host seconds of one slice of kEvents events. */
    double
    measure()
    {
        const double t0 = now();
        run(kEvents);
        const double seconds = now() - t0;
        slices.push_back(seconds);
        return seconds;
    }

    std::vector<double> slices; ///< Every slice's host seconds so far.

  private:
    static constexpr std::uint32_t kProcs = 32;
    static constexpr std::uint32_t kLines = 8192;
    static constexpr std::uint32_t kBlocks = 524288;
    static constexpr std::uint32_t kHotBlocks = 4096;
    static constexpr std::uint64_t kEvents = 50000;
    static constexpr std::uint32_t kEmpty = ~0u;

    void
    run(std::uint64_t events)
    {
        for (std::uint64_t e = 0; e < events; ++e) {
            const auto [t, p] = queue_.top();
            queue_.pop();
            std::uint64_t &x = rng_[p];
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint32_t block =
                (x & 1) != 0 ? (p * (kHotBlocks / 4) + (x >> 8) % kHotBlocks) %
                                   kBlocks
                             : (x >> 8) % kBlocks;
            const bool write = ((x >> 40) & 3) == 0;
            std::uint32_t &tag = tags_[std::size_t(p) * kLines + block % kLines];
            std::uint64_t latency = 1;
            if (tag != block || write) {
                latency = 20;
                std::uint64_t &sharers = dir_[block];
                if (write) {
                    for (std::uint64_t o = sharers & ~(1ull << p); o != 0;
                         o &= o - 1) {
                        std::uint32_t &other =
                            tags_[std::size_t(__builtin_ctzll(o)) * kLines +
                                  block % kLines];
                        if (other == block)
                            other = kEmpty;
                        latency += 5;
                    }
                    sharers = 1ull << p;
                } else {
                    sharers |= 1ull << p;
                }
                tag = block;
            }
            queue_.push({t + latency, p});
        }
    }

    using Event = std::pair<std::uint64_t, std::uint32_t>; ///< (time, proc)
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    std::uint64_t rng_[kProcs];
    std::vector<std::uint32_t> tags_; ///< kProcs x kLines block tags.
    std::vector<std::uint64_t> dir_;  ///< Per block: sharer bit mask.
};

/** @p seconds, spent between probe slices of @p before and @p after
 *  seconds, at the host's reference speed. */
double
atReferenceSpeed(double seconds, double before, double after)
{
    return seconds * std::pow(SpeedProbe::kReferenceSeconds /
                                  ((before + after) / 2.0),
                              SpeedProbe::kLoadExponent);
}

// ----------------------------------------------------------- workloads

/**
 * One figure sweep the client runs in a closed loop.  Timed sweeps run
 * serially: with two workers the sweep's wall time also depends on how
 * the timing-dependent cell costs pack onto the workers, which doubled
 * cholesky_mesh_exec's spread across seeds (sim_refs_per_s: 21% against
 * 10% serial, IQR/median over five seeds).  The traced run
 * adds a pass on kPoolJobs workers for the pool's own metrics.
 */
struct Workload
{
    std::string name;
    std::string app;
    net::TopologyKind topology = net::TopologyKind::Full;
    std::vector<mach::MachineKind> machines;
    /** Execute, or Replay from traces recorded during set-up. */
    core::RunMode mode = core::RunMode::Execute;
    std::uint64_t size = 0; ///< AppParams::n.
    std::uint32_t maxProcs = 32;
    std::string reference; ///< Reference file stem (shared by IS feeds).
};

/** The three workloads; --tiny shrinks them for the smoke run. */
std::optional<Workload>
findWorkload(const std::string &name, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "is_full_exec" || name == "is_full_replay") {
        w.app = "is";
        w.topology = net::TopologyKind::Full;
        w.machines = mach::allQuadrants();
        if (name == "is_full_replay")
            w.mode = core::RunMode::Replay;
        w.size = tiny ? 1024 : 16384;
        w.reference = "is_full";
    } else if (name == "cholesky_mesh_exec") {
        w.app = "cholesky";
        w.topology = net::TopologyKind::Mesh2D;
        w.machines = mach::defaultFigureMachines();
        w.size = tiny ? 48 : 192;
        w.reference = "cholesky_mesh";
    } else {
        return std::nullopt;
    }
    if (tiny)
        w.maxProcs = 8;
    return w;
}

constexpr unsigned kPoolJobs = 2;

/**
 * The traced run repeats its differential sweeps for a second round
 * only when one untraced sweep takes less than this: a round of
 * cholesky_mesh_exec already takes most of a minute, and the traced
 * run must end well within three minutes on a loaded host.
 */
constexpr double kSecondRoundMaxSweepS = 3.0;

std::vector<std::uint32_t>
procCounts(const Workload &w)
{
    std::vector<std::uint32_t> procs;
    for (std::uint32_t p : core::defaultProcCounts())
        if (p <= w.maxProcs)
            procs.push_back(p);
    return procs;
}

core::RunConfig
baseConfig(const Workload &w, std::uint64_t seed)
{
    core::RunConfig base;
    base.app = w.app;
    base.params.n = w.size;
    base.params.seed = seed;
    base.topology = w.topology;
    base.checkResult = true;
    return base;
}

/** The sweep's cells in figure order: point-major, machine-minor. */
std::vector<core::RunConfig>
grid(const Workload &w, const core::RunConfig &base)
{
    std::vector<core::RunConfig> configs;
    for (std::uint32_t p : procCounts(w)) {
        for (mach::MachineKind m : w.machines) {
            core::RunConfig c = base;
            c.procs = p;
            c.machine = m;
            configs.push_back(c);
        }
    }
    return configs;
}

/** No silent retry: a failed attempt is a failed cell. */
core::RunPolicy
strictPolicy()
{
    core::RunPolicy policy;
    policy.maxAttempts = 1;
    policy.retryCheckFailures = false;
    return policy;
}

// --------------------------------------------------- cell values + refs

/** The simulated quantities pinned per cell (all exact integers). */
struct CellValues
{
    std::uint64_t exec = 0;       ///< Profile::execTime, ticks.
    std::uint64_t latency = 0;    ///< Σ processor latency, ticks.
    std::uint64_t contention = 0; ///< Σ processor contention, ticks.
    std::uint64_t events = 0;     ///< Profile::engineEvents.
    std::uint64_t messages = 0;
    std::uint64_t misses = 0; ///< Read + write misses.
    std::uint64_t invalidations = 0;
    std::uint64_t accesses = 0; ///< Σ ProcStats::accesses.

    bool operator==(const CellValues &) const = default;
};

CellValues
valuesOf(const stats::Profile &p)
{
    CellValues v;
    v.exec = p.execTime();
    v.latency = p.totalLatency();
    v.contention = p.totalContention();
    v.events = p.engineEvents;
    v.messages = p.machine.messages;
    v.misses = p.machine.readMisses + p.machine.writeMisses;
    v.invalidations = p.machine.invalidations;
    for (const stats::ProcStats &s : p.procs)
        v.accesses += s.accesses;
    return v;
}

std::string
describe(const CellValues &v)
{
    std::ostringstream os;
    os << v.exec << ' ' << v.latency << ' ' << v.contention << ' '
       << v.events << ' ' << v.messages << ' ' << v.misses << ' '
       << v.invalidations << ' ' << v.accesses;
    return os.str();
}

using CellKey = std::pair<std::string, std::uint32_t>; ///< (machine, P)
using CellMap = std::map<CellKey, CellValues>;
using ReferenceSet = std::map<std::uint64_t, CellMap>; ///< By seed.

CellKey
keyOf(const core::RunConfig &c)
{
    return {mach::toString(c.machine), c.procs};
}

/** Identifies the grid a reference file pins; a mismatch is an error. */
std::string
referenceHeader(const Workload &w)
{
    return "# absim-bench-reference app=" + w.app +
           " n=" + std::to_string(w.size) +
           " topology=" + net::toString(w.topology);
}

constexpr const char *kReferenceColumns =
    "# seed machine procs exec latency contention events messages "
    "misses invalidations accesses";

bool
readReference(const fs::path &path, const Workload &w, ReferenceSet &out,
              std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path.string();
        return false;
    }
    std::string line;
    if (!std::getline(in, line) || line != referenceHeader(w)) {
        error = path.string() + ": header does not match the workload "
                "grid (expected '" + referenceHeader(w) + "')";
        return false;
    }
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string machine;
        std::uint32_t procs = 0;
        CellValues v;
        std::string extra;
        if (!(fields >> seed >> machine >> procs >> v.exec >> v.latency >>
              v.contention >> v.events >> v.messages >> v.misses >>
              v.invalidations >> v.accesses) ||
            (fields >> extra)) {
            error = path.string() + ":" + std::to_string(lineno) +
                    ": malformed reference line";
            return false;
        }
        out[seed][{machine, procs}] = v;
    }
    return true;
}

void
writeReference(std::ostream &os, const Workload &w, const ReferenceSet &refs)
{
    os << referenceHeader(w) << '\n' << kReferenceColumns << '\n';
    for (const auto &[seed, cells] : refs) {
        // Figure order, so the file diffs like the sweep reads.
        for (const core::RunConfig &c : grid(w, baseConfig(w, seed))) {
            const auto it = cells.find(keyOf(c));
            if (it != cells.end())
                os << seed << ' ' << it->first.first << ' '
                   << it->first.second << ' ' << describe(it->second)
                   << '\n';
        }
    }
}

// -------------------------------------------------------------- spans

/** One timed interval around a call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int id = 0;
    int parent = -1; ///< Enclosing span (the sweep or cell), -1 = root.
    unsigned tid = 0;
    std::string args; ///< Pre-rendered JSON members, may be empty.
};

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/** In-memory span store, written once when the run ends. */
class SpanLog
{
  public:
    /** Start a span now; close() ends it. */
    int
    open(std::string name, int parent)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = std::move(name);
        s.start = now();
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.tid = threadIndex();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    double
    close(int id, std::string args = {})
    {
        const std::lock_guard<std::mutex> lock(mu_);
        Span &s = spans_.at(static_cast<std::size_t>(id));
        s.end = now();
        s.args = std::move(args);
        return s.end - s.start;
    }

    /** Record a span whose interval is already known. */
    void
    add(std::string name, int parent, double start, double end,
        std::string args)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = std::move(name);
        s.start = start;
        s.end = end;
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.tid = threadIndex();
        s.args = std::move(args);
        spans_.push_back(std::move(s));
    }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    void
    write(const fs::path &path, const std::string &fingerprint) const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        std::ofstream os(path, std::ios::trunc);
        os << "{\"otherData\":" << fingerprint << ",\"traceEvents\":[";
        char buf[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f",
                          s.tid, s.start * 1e6, (s.end - s.start) * 1e6);
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
               << buf << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent
               << (s.args.empty() ? "" : ",") << s.args << "}}";
        }
        os << "\n]}\n";
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// -------------------------------------------------------------- sweeps

/** One cell's outcome plus what the client observed around it. */
struct CellResult
{
    core::RunConfig config;
    std::optional<core::RunResult> result;
    double seconds = 0.0; ///< Host time the worker spent (traced or probed).
    double scaled = 0.0;  ///< seconds at reference speed (probed only).
    std::uint64_t stacksAllocated = 0;
    std::uint64_t stacksReused = 0;
};

struct SweepOutcome
{
    double wall = 0.0;   ///< Host seconds, probe slices excluded.
    double scaled = 0.0; ///< Σ cell time at reference speed (probed only).
    double probing = 0.0; ///< Host seconds spent in probe slices.
    std::vector<CellResult> cells;

    double
    cellSeconds() const
    {
        double sum = 0.0;
        for (const CellResult &c : cells)
            sum += c.seconds;
        return sum;
    }
};

/**
 * Run @p configs on runManySafe — the sweep executor's worker pool —
 * and time it.  With a span log, every cell becomes a span: a worker's
 * cell starts where its previous cell (or the sweep) ended and ends in
 * the completion callback, which runs on the worker itself, so the
 * worker's fiber-stack pool counters can be read there as well.
 * With a speed probe (serial sweeps only), a probe slice runs before
 * the first cell and after every cell, outside the cells' and the
 * sweep's times, and each cell is also scaled to reference speed by
 * the slices on either side of it.
 */
SweepOutcome
runCells(const std::vector<core::RunConfig> &configs, unsigned jobs,
         SpanLog *log, int parent, const std::string &name,
         SpeedProbe *probe = nullptr)
{
    if (probe != nullptr && jobs != 1)
        throw std::logic_error("a speed probe needs a serial sweep");
    SweepOutcome out;
    out.cells.resize(configs.size());
    const int sweep_id = log ? log->open(name, parent) : -1;

    struct Mark
    {
        double lastEnd = 0.0;
        std::uint64_t allocated = 0;
        std::uint64_t reused = 0;
    };
    // Touched only inside the callback, which runManySafe serializes.
    std::map<std::thread::id, Mark> marks;
    const sim::FiberStackPool &own = sim::FiberStackPool::forThisThread();
    double slice = 0.0; // The latest probe slice.
    const double t0 = now();
    if (probe != nullptr) {
        slice = probe->measure();
        out.probing = now() - t0;
    }
    // A worker thread starts with an empty pool; the calling thread's
    // pool keeps its history, so its baseline is taken here.
    marks[std::this_thread::get_id()] = {t0 + out.probing, own.allocated(),
                                         own.reused()};

    core::RunManyCallback callback;
    if (log != nullptr || probe != nullptr) {
        callback = [&](std::size_t i, const core::RunResult &) {
            const double t = now();
            const sim::FiberStackPool &pool =
                sim::FiberStackPool::forThisThread();
            Mark &mark =
                marks.try_emplace(std::this_thread::get_id(), Mark{t0, 0, 0})
                    .first->second;
            CellResult &cell = out.cells[i];
            cell.seconds = t - mark.lastEnd;
            cell.stacksAllocated = pool.allocated() - mark.allocated;
            cell.stacksReused = pool.reused() - mark.reused;
            if (log != nullptr)
                log->add("cell", sweep_id, mark.lastEnd, t,
                         "\"machine\":\"" +
                             mach::toString(configs[i].machine) +
                             "\",\"procs\":" +
                             std::to_string(configs[i].procs));
            double end = t;
            if (probe != nullptr) {
                const double before = slice;
                slice = probe->measure();
                cell.scaled = atReferenceSpeed(cell.seconds, before, slice);
                out.scaled += cell.scaled;
                end = now();
                out.probing += end - t;
            }
            mark = {end, pool.allocated(), pool.reused()};
        };
    }
    std::vector<core::RunResult> results =
        core::runManySafe(configs, strictPolicy(), jobs, callback);
    out.wall = now() - t0 - out.probing;
    if (log != nullptr)
        log->close(sweep_id);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        out.cells[i].config = configs[i];
        out.cells[i].result.emplace(std::move(results[i]));
    }
    return out;
}

SweepOutcome
runSweep(const Workload &w, const core::RunConfig &base, core::RunMode mode,
         SpanLog *log, int parent, const std::string &name, unsigned jobs = 1,
         SpeedProbe *probe = nullptr)
{
    core::RunConfig config = base;
    config.mode = mode;
    return runCells(grid(w, config), jobs, log, parent, name, probe);
}

// ------------------------------------------------------------- checks

/** Attempted/failed cells of the run, with the first few diagnostics. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &what)
    {
        if (++failed <= 10)
            std::cerr << "absim_bench: failed cell: " << what << '\n';
    }
};

/**
 * Check every cell: it must have succeeded (no RunError, app
 * validation and invariant checks passed) and its simulated values
 * must equal @p expected.  A cell with no expected entry is recorded
 * as the expectation when @p establish is set (seeds without a pinned
 * reference: later sweeps and the replay feed must then match it).
 */
void
verify(const SweepOutcome &sweep, CellMap &expected, bool establish,
       Tally &tally)
{
    for (const CellResult &cell : sweep.cells) {
        ++tally.attempted;
        const CellKey key = keyOf(cell.config);
        const std::string where =
            key.first + " P=" + std::to_string(key.second);
        if (!cell.result->ok()) {
            const core::RunError &e = cell.result->error();
            tally.fail(where + ": " + core::toString(e.kind) + ": " +
                       e.message);
            continue;
        }
        const CellValues v = valuesOf(cell.result->value());
        const auto it = expected.find(key);
        if (it == expected.end()) {
            if (establish)
                expected.emplace(key, v);
            else
                tally.fail(where + ": no expected values");
        } else if (!(it->second == v)) {
            tally.fail(where + ": got [" + describe(v) + "] expected [" +
                       describe(it->second) + "]");
        }
    }
}

/** Cell host seconds by (machine, P), from a traced sweep. */
std::map<CellKey, double>
cellTimes(const SweepOutcome &sweep)
{
    std::map<CellKey, double> times;
    for (const CellResult &c : sweep.cells)
        times[keyOf(c.config)] = c.seconds;
    return times;
}

/** Σ over P of time(a) - time(b); 0 when either stack is not swept. */
double
stackGap(const std::map<CellKey, double> &times, const Workload &w,
         mach::MachineKind a, mach::MachineKind b)
{
    double gap = 0.0;
    for (std::uint32_t p : procCounts(w)) {
        const auto ia = times.find({mach::toString(a), p});
        const auto ib = times.find({mach::toString(b), p});
        if (ia == times.end() || ib == times.end())
            return 0.0;
        gap += ia->second - ib->second;
    }
    return gap;
}

double
stackSeconds(const std::map<CellKey, double> &times, mach::MachineKind m)
{
    double sum = 0.0;
    for (const auto &[key, s] : times)
        if (key.first == mach::toString(m))
            sum += s;
    return sum;
}

core::Figure
figureOf(const Workload &w, const SweepOutcome &sweep)
{
    core::Figure fig;
    for (std::uint32_t p : procCounts(w)) {
        core::SeriesPoint point;
        point.procs = p;
        for (const CellResult &c : sweep.cells)
            if (c.config.procs == p && c.result->ok())
                point.values.push_back(core::metricValue(
                    c.result->value(), core::Metric::ExecTime));
        fig.points.push_back(point);
    }
    return fig;
}

bool
sameValues(const core::Figure &a, const core::Figure &b)
{
    if (a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i)
        if (a.points[i].procs != b.points[i].procs ||
            a.points[i].values != b.points[i].values)
            return false;
    return true;
}

// ------------------------------------------------------ host + result

/** Fixed integer-hash loop: host speed, for normalising across hosts. */
double
calibrationNs()
{
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        const double t = now();
        for (int i = 0; i < 10'000'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 29;
            asm volatile("" : "+r"(x));
        }
        samples.push_back((now() - t) * 1e9);
    }
    return median(samples);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string model = line.substr(colon + 1);
                model.erase(0, model.find_first_not_of(' '));
                return model;
            }
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    return "\"" + core::jsonEscape(s) + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Restart the resident-set high-water mark at the current RSS. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** A "Vm...:" line of /proc/self/status, in MB. */
double
statusMb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(field + ":", 0) == 0)
            return std::strtod(line.c_str() + field.size() + 1, nullptr) /
                   1024.0; // kB
    return 0.0;
}

/** The process's resident-set high-water mark.  VmHWM, unlike
 *  getrusage's ru_maxrss, starts afresh at exec, so a launcher's own
 *  footprint is not counted. */
double
peakRssMb()
{
    return statusMb("VmHWM");
}

/** Ordered (name, value, unit) triples; printed once, in this order. */
struct Metrics
{
    std::vector<std::tuple<std::string, double, std::string>> entries;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        entries.emplace_back(name, value, unit);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const auto &[name, value, unit] = entries[i];
            out += (i ? ", " : "") + jsonString(name) +
                   ": {\"value\": " + number(value) +
                   ", \"unit\": " + jsonString(unit) + "}";
        }
        return out + "}";
    }
};

// ----------------------------------------------------------- the run

struct Options
{
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    fs::path referenceDir = "benchmark/reference";
    fs::path outDir = ".bench_build/out";
    std::string rev = "unknown";
    std::string srcHash = "unknown";
    std::string writeReference;
    std::vector<std::uint64_t> seeds;
    bool selfTest = false;
};

/** What one run carries between set-up, the timed loop and traced passes. */
struct Run
{
    Run(const Options &options, const Workload &workload)
        : opt(options), w(workload), base(baseConfig(workload, options.seed))
    {
    }

    const Options &opt;
    Workload w;
    core::RunConfig base;
    CellMap expected;
    bool pinned = false; ///< The seed has a pinned reference.
    Tally tally;
    fs::path traceDir;   ///< Replay feed: the recorded trace store.
    SweepOutcome record; ///< Replay feed: the last set-up record pass.

    /**
     * One set-up: load the pinned reference, then warm up — for the
     * replay feed, a full record pass (every cell executed with the
     * recorder bound and its trace saved) into a fresh trace store;
     * for execution feeds, the sweep's last cell (largest P, last stack).
     * Returns that pass (its cells probed when @p probe is given).
     */
    SweepOutcome
    setup(int index, SpanLog *log, SpeedProbe *probe = nullptr)
    {
        const int span = log ? log->open("setup", -1) : -1;
        SweepOutcome pass;
        expected.clear();
        pinned = false;
        if (!opt.tiny) {
            ReferenceSet refs;
            std::string error;
            const fs::path path = opt.referenceDir / (w.reference + ".ref");
            if (!readReference(path, w, refs, error))
                throw std::runtime_error(error);
            const auto it = refs.find(opt.seed);
            if (it != refs.end()) {
                expected = it->second;
                pinned = true;
            }
        }
        if (w.mode == core::RunMode::Replay) {
            if (!traceDir.empty())
                fs::remove_all(traceDir);
            traceDir = opt.outDir / ("traces-" + w.name + "-" +
                                     std::to_string(index));
            fs::remove_all(traceDir);
            base.traceDir = traceDir.string();
            record = runSweep(w, base, core::RunMode::Record, log, span,
                              "record_sweep", 1, probe);
            verify(record, expected, !pinned, tally);
            pass = record;
        } else {
            pass = runCells({grid(w, base).back()}, 1, log, span, "warmup",
                            probe);
            verify(pass, expected, !pinned, tally);
        }
        if (log)
            log->close(span);
        return pass;
    }

    SweepOutcome
    sweep(SpanLog *log, int parent, const std::string &name,
          unsigned jobs = 1, SpeedProbe *probe = nullptr)
    {
        SweepOutcome s =
            runSweep(w, base, w.mode, log, parent, name, jobs, probe);
        verify(s, expected, !pinned, tally);
        return s;
    }
};

std::uint64_t
sweepAccesses(const SweepOutcome &s)
{
    std::uint64_t n = 0;
    for (const CellResult &c : s.cells)
        if (c.result->ok())
            n += valuesOf(c.result->value()).accesses;
    return n;
}

/** --trace 0: set up three times, then sweep for opt.seconds. */
Metrics
measureEndToEnd(Run &run)
{
    // Every time is taken at the host's reference speed (SpeedProbe),
    // cell by cell; the host's own seconds are printed beside them.
    const double rss_before_probe = statusMb("VmRSS");
    SpeedProbe probe;
    probe.measure();
    // The probe's tables stay resident; peak_rss_mb leaves them out.
    const double probe_mb = statusMb("VmRSS") - rss_before_probe;
    // A set-up's cells are scaled one by one; the rest of it (reference
    // load, trace store) by the slices before and after the set-up.
    std::vector<double> setups, setups_host;
    for (int i = 0; i < 3; ++i) {
        const double before = probe.measure();
        const double t = now();
        const SweepOutcome pass = run.setup(i, nullptr, &probe);
        setups_host.push_back(now() - t - pass.probing);
        const double rest = setups_host.back() - pass.wall;
        setups.push_back(pass.scaled + atReferenceSpeed(rest, before,
                                                        probe.measure()));
    }

    // Peak memory is that of one sweep on top of what set-up left
    // resident: resetting the high-water mark drops set-up's transient
    // buffers (the recorder's), and reading it after the first sweep
    // keeps it independent of how many sweeps fit in the run (on the
    // replay workload the mark keeps rising slowly over later sweeps).
    resetPeakRss();
    std::vector<double> walls, walls_host;
    std::uint64_t accesses = 0;
    double peak_rss = 0.0;
    const double start = now();
    do {
        const SweepOutcome s = run.sweep(nullptr, -1, "sweep", 1, &probe);
        if (walls.empty())
            peak_rss = peakRssMb() - probe_mb;
        walls.push_back(s.scaled);
        walls_host.push_back(s.wall);
        accesses = sweepAccesses(s);
        // Stop when another sweep would end past the budget by more
        // than half of it, so a long sweep does not overshoot much.
    } while (now() - start + 0.5 * walls_host.back() < run.opt.seconds);

    const auto samples = [](const char *what, const std::vector<double> &v) {
        std::printf("# %s:", what);
        for (double x : v)
            std::printf(" %.4f", x);
        std::printf("\n");
    };
    std::printf("# %zu timed sweeps of %zu cells; host-second medians: "
                "sweep %.4f, set-up %.4f\n",
                walls.size(), grid(run.w, run.base).size(),
                median(walls_host), median(setups_host));
    std::printf("# %zu probe slices: fastest %.6f s, median %.6f s\n",
                probe.slices.size(),
                *std::min_element(probe.slices.begin(), probe.slices.end()),
                median(probe.slices));
    samples("sweep s at reference speed", walls);
    samples("sweep host s", walls_host);
    samples("set-up s at reference speed", setups);
    samples("set-up host s", setups_host);
    Metrics m;
    m.set("wall_s", median(walls), "s");
    m.set("sim_refs_per_s",
          ratio(static_cast<double>(accesses), median(walls)), "1/s");
    m.set("setup_s", median(setups), "s");
    m.set("peak_rss_mb", peak_rss, "MB");
    return m;
}

/** --trace 1: traced and differential passes; per-layer metrics. */
Metrics
measureLayers(Run &run, SpanLog &log, double calib_ns)
{
    const Workload &w = run.w;
    run.setup(0, &log);

    // Rounds of an untraced sweep (the difference to the traced one is
    // the tracing overhead), a traced sweep, and a traced sweep with the
    // coherence and conservation validators off.  Timings take the
    // fastest of up to two rounds: other load on the host only ever
    // adds time.
    std::vector<double> plain, traced_walls, unchecked;
    std::vector<SweepOutcome> traced;
    std::uint64_t checks = 0;
    for (int round = 0; round < 2; ++round) {
        if (round == 1 && plain.front() >= kSecondRoundMaxSweepS)
            break;
        plain.push_back(run.sweep(nullptr, -1, "sweep").wall);
        const std::uint64_t before = check::globalCounters().evaluated;
        traced.push_back(run.sweep(&log, -1, "sweep"));
        checks = check::globalCounters().evaluated - before;
        traced_walls.push_back(traced.back().wall);

        const check::Options saved = check::options();
        check::options().coherence = false;
        check::options().conservation = false;
        unchecked.push_back(run.sweep(&log, -1, "sweep_checks_off").wall);
        check::options() = saved;
    }
    const double plain_s = *std::min_element(plain.begin(), plain.end());
    const double traced_s =
        *std::min_element(traced_walls.begin(), traced_walls.end());
    const double unchecked_s =
        *std::min_element(unchecked.begin(), unchecked.end());

    // The sweep executor's pool: the same cells on kPoolJobs workers.
    const SweepOutcome pooled =
        run.sweep(&log, -1, "sweep_pool", kPoolJobs);
    double cell_max = 0.0;
    for (const CellResult &c : pooled.cells)
        cell_max = std::max(cell_max, c.seconds);

    CellValues total;
    std::uint64_t hits = 0, mem_accesses = 0, allocated = 0, reused = 0;
    for (const CellResult &c : traced.front().cells) {
        allocated += c.stacksAllocated;
        reused += c.stacksReused;
        if (!c.result->ok())
            continue;
        const stats::Profile &p = c.result->value();
        const CellValues v = valuesOf(p);
        total.events += v.events;
        total.accesses += v.accesses;
        total.messages += v.messages;
        total.misses += v.misses;
        total.invalidations += v.invalidations;
        total.latency += v.latency;
        total.contention += v.contention;
        hits += p.machine.cacheHits;
        mem_accesses += p.machine.accesses;
    }
    std::map<CellKey, double> times; // Each cell's fastest round.
    for (const SweepOutcome &sweep : traced) {
        for (const auto &[key, t] : cellTimes(sweep)) {
            const auto [it, fresh] = times.try_emplace(key, t);
            if (!fresh)
                it->second = std::min(it->second, t);
        }
    }
    double cell_s = 0.0;
    for (const auto &entry : times)
        cell_s += entry.second;
    const bool exec_feed = w.mode == core::RunMode::Execute;

    // Section 7 host-time ratios and the abstraction's simulated error.
    double err_pct = 0.0;
    const std::vector<std::uint32_t> procs = procCounts(w);
    for (std::uint32_t p : procs) {
        const CellValues &t =
            run.expected.at({mach::toString(mach::MachineKind::Target), p});
        const CellValues &c =
            run.expected.at({mach::toString(mach::MachineKind::LogPC), p});
        err_pct += 100.0 *
                   std::abs(static_cast<double>(c.exec) -
                            static_cast<double>(t.exec)) /
                   static_cast<double>(t.exec);
    }
    err_pct /= static_cast<double>(procs.size());
    const double target_s = stackSeconds(times, mach::MachineKind::Target);

    // Trace record / save / load / replay, called directly per trace.
    double record_overhead = 0.0, save_s = 0.0, load_s = 0.0,
           replay_s = 0.0, speedup = 0.0;
    std::uint64_t ops = 0, bytes = 0;
    if (w.mode == core::RunMode::Replay) {
        const SweepOutcome executed = runSweep(
            w, run.base, core::RunMode::Execute, &log, -1, "exec_sweep");
        verify(executed, run.expected, false, run.tally);
        const auto exec_times = cellTimes(executed);
        for (const auto &[key, s] : cellTimes(run.record))
            record_overhead += s - exec_times.at(key);
        speedup = ratio(executed.cellSeconds(), cell_s);
        for (mach::MachineKind m : w.machines)
            std::printf("# trace_replay speedup %s: %.3fx\n",
                        mach::toString(m).c_str(),
                        ratio(stackSeconds(exec_times, m),
                              stackSeconds(times, m)));

        const fs::path resave = run.opt.outDir / ("resave-" + w.name);
        fs::create_directories(resave);
        for (std::uint32_t p : procs) {
            const int cell = log.open("trace_cell", -1);
            const std::string file =
                trace::traceFileName(w.app, run.base.params, p);
            const fs::path path = run.traceDir / file;
            trace::Trace t;
            int span = log.open("trace_replay.loadTrace", cell);
            const bool loaded = trace::loadTrace(path.string(), t);
            load_s += log.close(span);
            ++run.tally.attempted;
            if (!loaded) {
                run.tally.fail("cannot load " + path.string());
                log.close(cell);
                continue;
            }
            ops += t.opCount();
            bytes += fs::file_size(path);
            span = log.open("trace_replay.saveTrace", cell);
            trace::saveTrace(t, (resave / file).string());
            save_s += log.close(span);
            for (mach::MachineKind m : w.machines) {
                trace::ReplaySpec spec;
                spec.machine = m;
                spec.topology = w.topology;
                ++run.tally.attempted;
                span = log.open("trace_replay.replayTrace", cell);
                try {
                    core::RunContext context;
                    const CellValues v = valuesOf(trace::replayTrace(t, spec));
                    if (!(v == run.expected.at({mach::toString(m), p})))
                        run.tally.fail("replayTrace " + mach::toString(m) +
                                       " P=" + std::to_string(p) +
                                       " differs from execution");
                } catch (const std::exception &e) {
                    run.tally.fail(std::string("replayTrace: ") + e.what());
                }
                replay_s += log.close(
                    span, "\"machine\":\"" + mach::toString(m) + "\"");
            }
            log.close(cell, "\"procs\":" + std::to_string(p));
        }
        fs::remove_all(resave);
    }

    // The core layer's own sweep path: journaled figure sweep, then a
    // resume of the completed journal (read path only).
    const fs::path journal = run.opt.outDir / (w.name + ".journal.jsonl");
    fs::remove(journal);
    core::SweepOptions sweep_opts;
    sweep_opts.policy = strictPolicy();
    sweep_opts.jobs = 1;
    sweep_opts.machines = w.machines;
    sweep_opts.journalPath = journal.string();
    core::RunConfig base = run.base;
    base.mode = w.mode;
    int span = log.open("core.sweepFigureParallel", -1);
    const core::SweepResult journaled = core::sweepFigureParallel(
        w.name, base, w.topology, core::Metric::ExecTime, procs, sweep_opts);
    const double journaled_s = log.close(span);
    span = log.open("core.journal_resume", -1);
    const core::SweepResult resumed = core::sweepFigureParallel(
        w.name, base, w.topology, core::Metric::ExecTime, procs, sweep_opts);
    const double resume_s = log.close(span);
    fs::remove(journal);
    run.tally.attempted += 2;
    const core::Figure want = figureOf(w, traced.front());
    if (!journaled.complete() || !sameValues(journaled.figure, want))
        run.tally.fail("journaled figure sweep differs from the cells");
    if (!resumed.complete() || !sameValues(resumed.figure, want))
        run.tally.fail("resumed figure sweep differs from the cells");

    Metrics m;
    m.set("sim.events", static_cast<double>(total.events), "count");
    m.set("sim.ns_per_event",
          ratio(cell_s * 1e9, static_cast<double>(total.events)), "ns");
    m.set("sim.fiber_stack_reuse_ratio",
          ratio(static_cast<double>(reused),
                static_cast<double>(allocated + reused)),
          "ratio");
    m.set("runtime.accesses", static_cast<double>(total.accesses), "count");
    m.set("runtime.ns_per_access",
          exec_feed ? ratio(cell_s * 1e9, static_cast<double>(total.accesses))
                    : 0.0,
          "ns");
    m.set("mem.hit_ratio",
          ratio(static_cast<double>(hits), static_cast<double>(mem_accesses)),
          "ratio");
    m.set("mem.misses", static_cast<double>(total.misses), "count");
    m.set("mem.invalidations", static_cast<double>(total.invalidations),
          "count");
    m.set("machines.dir_over_ideal_s",
          stackGap(times, w, mach::MachineKind::Target,
                   mach::MachineKind::TargetIC),
          "s");
    m.set("machines.logpc_over_target_host",
          ratio(stackSeconds(times, mach::MachineKind::LogPC), target_s),
          "x");
    m.set("machines.logp_over_target_host",
          ratio(stackSeconds(times, mach::MachineKind::LogP), target_s), "x");
    m.set("machines.logpc_exec_err_pct", err_pct, "%");
    m.set("net.detailed_over_logp_s",
          stackGap(times, w, mach::MachineKind::Target,
                   mach::MachineKind::LogPDir),
          "s");
    m.set("net.messages", static_cast<double>(total.messages), "count");
    m.set("net.contention_share",
          ratio(static_cast<double>(total.contention),
                static_cast<double>(total.latency + total.contention)),
          "ratio");
    m.set("check.evaluated", static_cast<double>(checks), "count");
    m.set("check.share", ratio(traced_s - unchecked_s, traced_s), "ratio");
    m.set("trace_replay.record_overhead_s", record_overhead, "s");
    m.set("trace_replay.save_s", save_s, "s");
    m.set("trace_replay.load_s", load_s, "s");
    m.set("trace_replay.ns_per_op",
          ratio(replay_s * 1e9, static_cast<double>(ops) *
                                    static_cast<double>(w.machines.size())),
          "ns");
    m.set("trace_replay.ops", static_cast<double>(ops), "count");
    m.set("trace_replay.bytes", static_cast<double>(bytes), "bytes");
    m.set("trace_replay.speedup_x", speedup, "x");
    m.set("core.cell_s.max", cell_max, "s");
    m.set("core.pool_idle_share",
          1.0 - ratio(pooled.cellSeconds(), kPoolJobs * pooled.wall),
          "ratio");
    m.set("core.sweep_overhead_s", journaled_s - plain_s, "s");
    m.set("core.journal_resume_s", resume_s, "s");
    m.set("trace.overhead_s", traced_s - plain_s, "s");
    m.set("host.calib_ns", calib_ns, "ns");
    return m;
}

// --------------------------------------------- reference + self-test

/** Execute the workload's grid at each seed and write the reference. */
int
writeReferenceFile(const Options &opt, const Workload &w)
{
    ReferenceSet refs;
    Tally tally;
    for (std::uint64_t seed : opt.seeds) {
        const SweepOutcome s = runSweep(w, baseConfig(w, seed),
                                        core::RunMode::Execute, nullptr, -1,
                                        "sweep");
        verify(s, refs[seed], true, tally);
        std::fprintf(stderr, "absim_bench: seed %" PRIu64 " done\n", seed);
    }
    if (tally.failed != 0) {
        std::fprintf(stderr, "absim_bench: %" PRIu64
                             " cells failed; reference not written\n",
                     tally.failed);
        return 1;
    }
    std::ofstream os(opt.writeReference, std::ios::trunc);
    writeReference(os, w, refs);
    return os ? 0 : 1;
}

/**
 * The correctness gate must catch a wrong cell: a tiny sweep checked
 * against its own (round-tripped) reference passes, and the same
 * reference with one value perturbed reports exactly that cell.
 */
int
selfTest(const Options &opt)
{
    Workload w = *findWorkload("is_full_exec", true);
    w.machines = {mach::MachineKind::Target, mach::MachineKind::LogPC};
    w.maxProcs = 4;
    const std::uint64_t seed = 7;
    const SweepOutcome s = runSweep(w, baseConfig(w, seed),
                                    core::RunMode::Execute, nullptr, -1,
                                    "sweep");
    ReferenceSet refs;
    Tally first;
    verify(s, refs[seed], true, first);

    fs::create_directories(opt.outDir);
    const fs::path path = opt.outDir / "self_test.ref";
    {
        std::ofstream os(path, std::ios::trunc);
        writeReference(os, w, refs);
    }
    ReferenceSet loaded;
    std::string error;
    const bool read_ok = readReference(path, w, loaded, error);
    fs::remove(path);

    Tally clean;
    verify(s, loaded[seed], false, clean);
    CellMap exec_off = loaded[seed];
    exec_off.begin()->second.exec += 1;
    Tally perturbed_exec;
    verify(s, exec_off, false, perturbed_exec);
    CellMap events_off = loaded[seed];
    events_off.rbegin()->second.events += 1;
    Tally perturbed_events;
    verify(s, events_off, false, perturbed_events);

    const bool ok = first.failed == 0 && read_ok && loaded == refs &&
                    clean.failed == 0 && perturbed_exec.failed == 1 &&
                    perturbed_events.failed == 1;
    std::printf("self-test: %zu cells; clean reference %" PRIu64
                " failed, perturbed exec %" PRIu64
                " failed, perturbed events %" PRIu64 " failed -> %s\n",
                s.cells.size(), clean.failed, perturbed_exec.failed,
                perturbed_events.failed, ok ? "ok" : "FAIL");
    if (!read_ok)
        std::fprintf(stderr, "absim_bench: %s\n", error.c_str());
    return ok ? 0 : 1;
}

// -------------------------------------------------------------- main

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "absim_bench: %s\nusage: absim_bench --workload "
                 "{is_full_exec|is_full_replay|cholesky_mesh_exec} "
                 "--seed N --seconds S --trace {0|1} [--tiny] "
                 "[--reference-dir DIR] [--out-dir DIR] [--rev REV] "
                 "[--src-hash HASH]\n       absim_bench --workload NAME "
                 "--write-reference FILE --seeds A,B,...\n       "
                 "absim_bench --self-test [--out-dir DIR]\n",
                 msg);
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (arg == "--self-test") {
            opt.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            if (!parseU64(val, opt.seed))
                return usage("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            if (!parseU64(val, n) || n == 0 || n > 3600)
                return usage("--seconds expects an integer in 1..3600");
            opt.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace expects 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--reference-dir") {
            opt.referenceDir = val;
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else if (arg == "--rev") {
            opt.rev = val;
        } else if (arg == "--src-hash") {
            opt.srcHash = val;
        } else if (arg == "--write-reference") {
            opt.writeReference = val;
        } else if (arg == "--seeds") {
            std::istringstream list(val);
            std::string item;
            while (std::getline(list, item, ',')) {
                if (!parseU64(item, n))
                    return usage("--seeds expects comma-separated integers");
                opt.seeds.push_back(n);
            }
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.selfTest)
        return selfTest(opt);

    const std::optional<Workload> workload =
        findWorkload(opt.workload, opt.tiny);
    if (!workload)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!opt.writeReference.empty()) {
        if (opt.seeds.empty() || workload->mode != core::RunMode::Execute || opt.tiny)
            return usage("--write-reference needs --seeds and a full-size "
                         "execution workload");
        return writeReferenceFile(opt, *workload);
    }

    const double calib_ns = calibrationNs();
    const std::string fingerprint =
        "{\"rev\": " + jsonString(opt.rev) +
        ", \"src_sha256\": " + jsonString(opt.srcHash) +
        ", \"compiler\": " + jsonString(ABSIM_BENCH_COMPILER) +
        ", \"build_type\": " + jsonString(ABSIM_BENCH_BUILD_TYPE) +
        ", \"cpu\": " + jsonString(cpuModel()) + ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"host.calib_ns\": " + number(calib_ns) +
        ", \"workload\": " + jsonString(workload->name) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"tiny\": " + (opt.tiny ? "true" : "false") + "}";
    std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());

    Run run(opt, *workload);
    Metrics metrics;
    try {
        fs::create_directories(opt.outDir);
        const std::uint64_t check_failures = check::globalCounters().failed;
        if (opt.trace) {
            SpanLog log;
            metrics = measureLayers(run, log, calib_ns);
            const fs::path spans =
                opt.outDir / ("spans-" + workload->name + "-seed" +
                              std::to_string(opt.seed) + ".json");
            log.write(spans, fingerprint);
            std::printf("# spans: %s\n", spans.string().c_str());
        } else {
            metrics = measureEndToEnd(run);
        }
        if (check::globalCounters().failed != check_failures)
            run.tally.fail("invariant checks failed during the run");
        if (!run.traceDir.empty())
            fs::remove_all(run.traceDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "absim_bench: %s\n", e.what());
        return 1;
    }

    const bool correct = run.tally.failed == 0;
    std::printf("# reference: %s; cells attempted %" PRIu64 ", failed %" PRIu64
                ", cell_fail_ratio %.6g\n",
                run.pinned ? "pinned for this seed"
                           : "none for this seed (identity checks only)",
                run.tally.attempted, run.tally.failed,
                ratio(static_cast<double>(run.tally.failed),
                      static_cast<double>(run.tally.attempted)));
    for (const auto &[name, value, unit] : metrics.entries)
        std::printf("# %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", run.tally.attempted,
                run.tally.failed, metrics.json().c_str());
    return correct ? 0 : 1;
}
