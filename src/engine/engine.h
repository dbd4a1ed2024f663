// SsbEngine — the SSB query engine, in the paper's two configurations:
//
//  kPmemAware  (§6.2, "Handcrafted C++"): the fact table is striped across
//    the PMEM of both sockets, dimension indexes (Dash) are replicated per
//    socket, workers are pinned and touch only near data, rows are 128 B
//    aligned, intermediates are written sequentially per worker.
//
//  kUnaware    (§6.1, "Hyrise"): everything lives on one socket, joins use
//    a chained (pointer-chasing) hash table, no replication, no explicit
//    data placement — PMEM treated as drop-in DRAM.
//
// Queries execute functionally on the real generated data (results are
// validated against ssb::ReferenceExecutor) while an ExecutionProfile
// records the traffic; QueryTimer projects the runtime — optionally scaled
// to the paper's sf 50 / sf 100 — through the MemSystemModel.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/partitioner.h"
#include "core/profile.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"
#include "engine/dimension_index.h"
#include "engine/kernels.h"
#include "engine/timer.h"
#include "exec/pool.h"
#include "fault/fault_domain.h"
#include "fault/guarded_table.h"
#include "governor/governor.h"
#include "memsys/mem_system.h"
#include "qos/admission.h"
#include "qos/cancel_token.h"
#include "qos/query_options.h"
#include "ssb/column_store.h"
#include "ssb/dbgen.h"
#include "ssb/encoded_column_store.h"
#include "ssb/queries.h"
#include "ssb/star_query.h"
#include "tiering/tier_manager.h"

namespace pmemolap {

enum class EngineMode {
  kPmemAware,
  kUnaware,
};

const char* EngineModeName(EngineMode mode);

/// How worker parallelism is realized on the host.
enum class ExecutorKind {
  /// No threads: each socket's range executes inline.
  kSerial,
  /// The persistent work-stealing pool with per-socket run queues and
  /// morsel-granular dispatch.
  kMorselStealing,
};

const char* ExecutorKindName(ExecutorKind kind);

struct EngineConfig {
  EngineMode mode = EngineMode::kPmemAware;
  /// Where tables, indexes, and intermediates live.
  Media media = Media::kPmem;
  /// Hybrid placements (paper §9 future work): override the media of the
  /// randomly probed indexes and/or the write-heavy intermediates while
  /// the base table stays on `media`. -1 = follow `media`.
  std::optional<Media> index_media;
  std::optional<Media> intermediate_media;
  /// Column-store fact layout: scans touch only the queried columns
  /// instead of the full 128 B row (§2.2's column-store motivation).
  bool columnar = false;
  /// Total worker threads.
  int threads = 36;
  /// Use the cores and memory of both sockets (aware mode; the unaware
  /// engine always runs on one socket, like the paper's Hyrise setup).
  bool use_both_sockets = true;
  /// When false (the Table 1 "2-Socket" rung), data is striped but workers
  /// are not matched to their near partitions: half the scan traffic and
  /// all remote probes cross the UPI.
  bool numa_aware_placement = true;
  PinningPolicy pinning = PinningPolicy::kCores;
  /// Project runtimes to this scale factor (0 = report at the actual sf).
  double project_to_sf = 0.0;
  /// The handcrafted SSB runs on fsdax (Dash needs a filesystem, §6.2).
  bool devdax = false;
  /// Host execution strategy. The modeled runtime is a function of the
  /// config alone: every executor prices identical traffic.
  ExecutorKind executor = ExecutorKind::kMorselStealing;
  /// Ignored; removed together with its last assignment by the next
  /// benchmark change (every mode runs the vectorized kernels).
  bool vectorized = true;
  /// Scan the compressed encoded column store (src/encoding): each
  /// lineorder column is FoR-bit-packed, dictionary-encoded, or raw —
  /// whichever is smallest — at Prepare; a query's first read runs on
  /// the encoded frames (a fact range predicate directly, a dimension key
  /// by block decode), later columns are gathered at the surviving
  /// positions, and fact-scan traffic is priced at the per-column
  /// *encoded* byte widths, so modeled seconds drop by the bytes the
  /// encodings save. Requires `columnar` (encoded pricing is a
  /// column-width refinement); incompatible with fault/durable modes
  /// (both read the guarded/durable row image). Results are bit-identical
  /// to the raw path in both executor modes; off reproduces today's
  /// modeled seconds exactly.
  bool encoding = false;
  /// Tuples per morsel for the work-stealing executor (0 = default).
  uint64_t morsel_tuples = kDefaultMorselTuples;
  /// Non-null switches the engine into fault mode: the fact table and the
  /// dimension payloads are materialized on the domain's (armed) space as
  /// guarded PMEM state, and every read goes through the recovery path
  /// (retry, scrub, replica failover). The kernels read the fact rows in
  /// fixed-size blocks, one guarded read per block, and resolve each
  /// probe stage's dimension payloads in one guarded batch. When the
  /// domain carries a breaker board, Prepare attaches it to the guarded
  /// state and Execute re-plans morsels away from quarantined sockets.
  /// Must outlive the engine.
  FaultDomain* fault = nullptr;
  /// Non-null gates every Execute through this admission controller:
  /// the engine publishes its load signal (pool depth + fault-domain
  /// degradation), admits at the query's priority, and fails fast with
  /// kResourceExhausted when the class's queue is full. Must outlive the
  /// engine.
  qos::AdmissionController* admission = nullptr;
  /// Non-null enables the closed-loop bandwidth governor: every Execute
  /// applies its current actuator decision (per-socket pool worker caps,
  /// writer-thread clamps on write traffic, 256 B XPLine morsel shaping,
  /// DRAM-staged dimension probes) and feeds one telemetry sample back.
  /// Null = today's fixed behavior, bit-identical modeled seconds. Must
  /// outlive the engine.
  governor::BandwidthGovernor* governor = nullptr;
  /// Standing background traffic (e.g. an ingest load) present for the
  /// whole query: every query record is costed jointly with these classes
  /// (Fig. 11 interference). Given at model scale — project_to_sf does
  /// not rescale it. Empty = today's solo-query timing, bit-identical.
  std::vector<TrafficRecord> background;
  /// Non-null switches the engine into durable mode: the fact rows live
  /// in this crash-consistent DurableTable (fed epoch-by-epoch through
  /// Ingest) instead of db_->lineorder, every read pins a committed
  /// snapshot epoch (QueryOptions::snapshot_epoch), and the table's
  /// standing ingest write traffic joins the query's background classes —
  /// so log writes show up at the governor's write knee. Queries scan
  /// only committed rows: a crash mid-epoch can never surface torn data
  /// to a reader. The kernels read each morsel's rows in fixed-size
  /// blocks, one ReadSnapshot per block. Mutually exclusive with `fault`
  /// guarded mode. Must outlive the engine.
  DurableTable* durable = nullptr;
  /// Non-null enables three-tier DRAM↔PMEM↔SSD placement of the fact
  /// table (larger-than-memory mode): Prepare attaches the manager's
  /// extent map over lineorder, every Execute prices its fact scan
  /// against one placement snapshot (cold extents charge SSD reads),
  /// feeds per-morsel touches into the heat tracker, carries the
  /// manager's migration traffic as standing background load, and ticks
  /// one placement quantum. Null = today's single-tier pricing,
  /// bit-identical results and modeled seconds. Mutually exclusive with
  /// fault/durable modes; requires NUMA-aware placement. Must outlive
  /// the engine.
  tiering::TierManager* tiering = nullptr;
  TimerConfig timer;
};

class SsbEngine {
 public:
  /// `db` and `model` must outlive the engine.
  SsbEngine(const ssb::Database* db, const MemSystemModel* model,
            EngineConfig config);

  /// Builds dimension indexes and the fact partitioning.
  Status Prepare();

  struct QueryRun {
    ssb::QueryOutput output;
    double seconds = 0.0;   ///< projected runtime (at project_to_sf if set)
    ExecutionProfile profile;  ///< traffic at the actual scale factor
    CpuWork cpu;               ///< CPU work at the actual scale factor
    /// Projected seconds per phase ("scan", "probe-part", ..., "cpu") —
    /// where the query's time goes at the projected scale.
    std::map<std::string, double> phase_seconds;
    /// How far execution got (morsels for the stealing executor, ranges
    /// otherwise). Meaningful mostly when a deadline cut the run short.
    qos::QueryProgress progress;
  };

  /// Executes one SSB query functionally and projects its runtime.
  Result<QueryRun> Execute(ssb::QueryId query) const;

  /// Execute(ssb::StarQueryFor(query), options).
  Result<QueryRun> Execute(ssb::QueryId query,
                           const qos::QueryOptions& options) const;

  /// Executes any valid star query (InvalidArgument otherwise) under
  /// query-lifecycle controls: the query is admitted
  /// through config().admission (if set) at options.priority, its
  /// deadline/retry budget is armed on a cancel token checked *between*
  /// morsels (a kernel never tears mid-morsel), and partial progress is
  /// reported through options.progress and QueryRun::progress. Expired
  /// deadlines return kDeadlineExceeded; shed admissions return
  /// kResourceExhausted.
  Result<QueryRun> Execute(const ssb::StarQuery& query,
                           const qos::QueryOptions& options) const;

  /// Durable mode: appends `count` rows as one crash-consistent ingest
  /// epoch and returns the committed epoch id. The rows become visible to
  /// queries whose snapshot is at or past that epoch. For results to stay
  /// validatable against the reference executor, ingest must follow
  /// db->lineorder prefix order (epoch k extends the ingested prefix).
  Result<uint64_t> Ingest(const ssb::LineorderRow* rows, uint64_t count);

  /// Durable mode: runs crash recovery over the redo log. While recovery
  /// is replaying, config().admission (if set) is paused — TryAdmit fails
  /// fast with kUnavailable and Admit waiters queue — so no query can pin
  /// a snapshot against a half-replayed table; the pause lifts before
  /// returning (on every path, error included). FailedPrecondition
  /// without a durable table.
  Result<RecoveryStats> Recover();

  const EngineConfig& config() const { return config_; }
  /// Scale factor of the loaded database (lineorder rows / 6M).
  double ActualScaleFactor() const;

 private:
  /// Surfaces a non-clean runtime durability oracle
  /// (DurableTable::order_checker) as Internal — called after every
  /// Ingest/Recover so a protocol regression fails the operation that
  /// exposed it instead of silently recording violations.
  Status CheckDurabilityOracle() const;

  /// Accumulator of one host worker. A worker may execute morsels of
  /// several sockets (stealing), so probe/qualifying counts are kept per
  /// partition slot — the per-socket traffic records stay deterministic
  /// under any steal schedule.
  struct WorkerState {
    AggTable groups;          ///< grouped sums
    int64_t scalar_sum = 0;   ///< a scalar query's sum
    std::vector<KernelCounters> counters;  ///< per partition slot
    KernelScratch scratch;
    /// Fault and durable modes: the block of fact rows the kernels read,
    /// refilled by one guarded Read or ReadSnapshot per kRowBlockRows.
    std::vector<ssb::LineorderRow> rows;
  };

  /// Rows per guarded or durable row-image read: 256 KiB of 128 B rows,
  /// small enough to stay cache-resident while the kernels transpose the
  /// query's columns out of it.
  static constexpr uint64_t kRowBlockRows = 2048;

  /// Executes tuples [range) of partition slot `slot` into `state`
  /// through the kernels, probing the slot socket's replicas. In fault
  /// and durable modes the kernels run block by block over rows read off
  /// the guarded fact image or out of `snapshot_epoch` (ignored
  /// otherwise); an unrecoverable fault or a failed snapshot read
  /// surfaces as the returned Status.
  Status ExecuteRangeInto(const ssb::StarQuery& query, size_t slot,
                          const TupleRange& range, uint64_t snapshot_epoch,
                          WorkerState* state,
                          const CancelCheck& cancel = CancelCheck()) const;

  /// The partial QueryOutput a worker contributed (merges the flat agg
  /// table into the ordered map).
  static ssb::QueryOutput DrainWorkerOutput(bool scalar, WorkerState* state);

  /// Emits the traffic records for one socket's share of the work —
  /// `scanned` is the (window/snapshot-clamped) tuple range the socket's
  /// fact scan covered. A non-null `decision` applies the governor's
  /// actuations: staged structures record DRAM traffic and write records
  /// clamp to the decision's writer-thread count. A non-null `tiers`
  /// placement snapshot splits the fact-scan bytes across the tiers the
  /// scanned extents occupy (DRAM/PMEM/SSD media records).
  void RecordSocketTraffic(const std::vector<ssb::LineorderColumn>& columns,
                           int socket, const TupleRange& scanned,
                           const KernelCounters& counters,
                           int threads_per_socket,
                           const governor::GovernorDecision* decision,
                           const tiering::TieringSnapshot* tiers,
                           ExecutionProfile* profile) const;

  /// Fact bytes a scan of `tuples` tuples over `columns` (the query's
  /// ScanColumns) moves: the padded 128 B row in row layout, 4 B per
  /// column in columnar layout, or the per-column encoded widths when
  /// encoding is on.
  uint64_t ScanBytes(const std::vector<ssb::LineorderColumn>& columns,
                     uint64_t tuples) const;

  /// One dimension's state. The dense map is what the kernels probe: key
  /// -> encoded payload, or key -> position into the guarded payload
  /// replicas in fault mode. The probes are priced as Dash (aware) or
  /// chained (unaware) index probes; `index_bytes` and `probe_cost` are
  /// the figures of that index, built once in Prepare. Aware mode
  /// replicates the index per socket (§6.2), and the replicas are
  /// identical, so one build prices them all. Governor staging changes
  /// only the media RecordSocketTraffic prices probes at, never the
  /// values probed.
  struct DimensionState {
    DenseDimMap map;
    std::unique_ptr<GuardedDimension> guarded;
    uint64_t index_bytes = 0;
    ProbeCost probe_cost;
  };

  const ssb::Database* db_;
  const MemSystemModel* model_;
  EngineConfig config_;
  std::array<DimensionState, ssb::kNumDimensions> dims_;
  std::vector<SocketPartition> partitions_;
  /// Columnar projection the kernels scan (built in Prepare outside fault
  /// and durable modes: those read the guarded or durable row image).
  ssb::ColumnStore columns_;
  /// Compressed view of columns_ (EngineConfig::encoding): scheme picked
  /// per column at Prepare.
  ssb::EncodedColumnStore encoded_;
  /// The persistent work-stealing executor (kMorselStealing only):
  /// spawned once in Prepare, reused by every Execute.
  std::unique_ptr<WorkStealingPool> pool_;
  // Fault mode: the fact byte image lives in a CRC-guarded striped table.
  std::unique_ptr<GuardedTable> guarded_fact_;
  bool prepared_ = false;
};

}  // namespace pmemolap
