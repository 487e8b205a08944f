#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace mkbas::obs {

/// Causal context carried alongside a message (kernel-side, or in a
/// reserved BACnet header field — never in user payload bytes). Two
/// words: the trace this operation belongs to and the span it happens
/// under. trace_id == 0 means "no context" — a personality or protocol
/// that cannot carry the field simply forwards the zero, which models
/// the real protocol limit.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

/// One completed (or abandoned) span: a named interval attributed to a
/// (machine, pid), linked to its parent by id. Names and notes are
/// interned through the process-wide sim::TagRegistry, so a span is
/// four words of ids plus two timestamps.
struct Span {
  std::uint64_t span_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;  // 0 == root of its trace
  std::uint32_t name = 0;         // interned tag
  std::uint32_t note = 0;         // interned annotation ("restart", ...)
  int machine = 0;
  int pid = -1;
  sim::Time start = 0;
  sim::Time end = 0;
  bool abandoned = false;  // closed administratively (process death)

  const std::string& what() const {
    return sim::TagRegistry::instance().name(name);
  }
};

/// Append-only log of closed spans backed by one contiguous buffer.
/// Unbounded mode appends; ring mode overwrites the oldest slot in
/// place, so the steady-state push — which sits on the kernel IPC hot
/// path via SpanStore — allocates nothing. Iteration yields insertion
/// order (oldest first), like the deque it replaces.
class SpanLog {
 public:
  std::size_t size() const { return size_; }
  const Span& operator[](std::size_t i) const {
    return buf_[wrap(head_ + i)];
  }

  /// Append (caller has already decided there is room).
  void push_back(const Span& s) {
    buf_.push_back(s);
    ++size_;
  }
  /// Overwrite the oldest entry with `s` (ring at capacity).
  void push_wrap(const Span& s) {
    buf_[head_] = s;
    head_ = wrap(head_ + 1);
  }
  /// Drop the oldest `n` entries, compacting the buffer. Only called
  /// from set_capacity — never on the hot path.
  void drop_front(std::size_t n);

  /// Pre-size the backing buffer so the next `n` appends never reallocate.
  void reserve(std::size_t n) { buf_.reserve(n); }

  class const_iterator {
   public:
    const_iterator(const SpanLog* log, std::size_t i) : log_(log), i_(i) {}
    const Span& operator*() const { return (*log_)[i_]; }
    const Span* operator->() const { return &(*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const SpanLog* log_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  std::vector<Span> buf_;
  std::size_t head_ = 0;  // index of the oldest entry
  std::size_t size_ = 0;
};

/// Deterministic causal tracer owned by one sim::Machine.
///
/// A span id packs [16-bit splitmix64 tag][8-bit machine][40-bit
/// sequence] — a pure function of (machine id, virtual start time,
/// per-store sequence counter), never of wall clock or memory layout,
/// so a replay produces byte-identical stores and a parallel campaign
/// can hash them. The sequence field makes the lineage index a dense
/// per-machine array (appended sequentially on the IPC hot path); the
/// tag detects id aliasing when stores from unrelated histories are
/// merged (same machine byte + sequence, different virtual time).
///
/// Two kinds of span:
///  * scoped spans (`begin`/`end`) nest on the calling process: the
///    parent is the process's current context and the current context
///    follows begin/end like a stack;
///  * flow spans (`begin_flow`/`end_flow`) have an explicit parent and
///    touch nobody's current context — kernel IPC hops and network
///    link hops, which start on the sender and end at delivery.
///
/// Accounting distinguishes *dropped* span records (closed spans the
/// ring buffer evicted — the TraceLog notion of dropped) from
/// *abandoned* spans (opened but never properly ended, e.g. the owner
/// died mid-operation). Invariants, checked by tests:
///   total_begun() == open_count() + total_ended() + total_abandoned()
///   total_ended() + total_abandoned() == size() + dropped()
class SpanStore {
 public:
  /// Fabric node index (single machines keep 0). Part of the span-id
  /// derivation, so set it before any span begins.
  void set_machine(int id) { machine_ = id; }
  int machine() const { return machine_; }

  /// Master switch for the overhead A/B benchmark. Disabled stores
  /// hand out id 0 and record nothing.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// 0 = unbounded (default). N > 0 = keep only the newest N closed
  /// spans, evicting oldest-first. Open spans are never evicted.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const { return capacity_; }

  /// Pre-size every hot-path container for a run expected to mint up to
  /// `spans` ids on this machine: the closed-span buffer (bounded by the
  /// ring capacity when one is set), this machine's lineage lane — the
  /// one append that otherwise reallocates forever, since lineage
  /// survives ring eviction — and the open/current scratch sets. After
  /// this, a steady-state window within the budget allocates nothing.
  void reserve(std::size_t spans) {
    done_.reserve(capacity_ > 0 ? std::min(capacity_, spans) : spans);
    lineage_.reserve_lane(static_cast<std::size_t>(machine_) & 0xff, spans);
    if (open_.capacity() < 64) open_.reserve(64);
    if (current_.capacity() < 256) current_.reserve(256);
  }

  // ---- recording ----

  /// Open a scoped span on `pid`: parent is the pid's current context
  /// (a fresh trace is minted when there is none) and the current
  /// context becomes this span. Returns the span id (0 when disabled).
  std::uint64_t begin(int pid, sim::Time now, const std::string& name);
  std::uint64_t begin(int pid, sim::Time now, std::uint32_t name);

  /// Close a scoped span and restore the pid's current context to the
  /// span's parent. Unknown / already-closed ids are ignored.
  void end(int pid, sim::Time now, std::uint64_t span_id,
           std::uint32_t note = 0);

  /// Open a span under an explicit parent context without touching any
  /// process's current context. A fresh trace is minted when `parent`
  /// is invalid.
  std::uint64_t begin_flow(int pid, sim::Time now, std::uint32_t name,
                           SpanContext parent);
  /// Close a flow span.
  void end_flow(sim::Time now, std::uint64_t span_id,
                std::uint32_t note = 0);

  /// The context a message sent by `pid` right now should carry.
  SpanContext current(int pid) const;
  /// Adopt `ctx` as `pid`'s current context (message delivery: the
  /// receiver continues the sender's trace). Invalid contexts clear it.
  void set_current(int pid, SpanContext ctx);

  /// Context naming span `span_id` within its trace — what a child
  /// started under that span should carry.
  SpanContext context_of(std::uint64_t span_id) const;

  /// Abandon every open span owned by `pid` and clear its current
  /// context. Called when a process is retired; the spans close with
  /// end == now and abandoned == true.
  void process_gone(int pid, sim::Time now);

  // ---- queries ----

  const SpanLog& spans() const { return done_; }
  std::size_t size() const { return done_.size(); }
  std::size_t open_count() const { return open_.size(); }
  /// Number of distinct span ids this store knows lineage for.
  std::size_t lineage_size() const { return lineage_.size(); }
  std::uint64_t total_begun() const { return total_begun_; }
  std::uint64_t total_ended() const { return total_ended_; }
  std::uint64_t total_abandoned() const { return total_abandoned_; }
  /// Closed spans evicted by the ring buffer since construction.
  std::uint64_t dropped() const { return dropped_; }

  /// Walk parent links from `span_id` to its root using the lineage
  /// index (which survives ring eviction). Returns ids leaf-first;
  /// stops at spans this store has never seen (e.g. a remote parent
  /// whose machine was not merged in).
  std::vector<std::uint64_t> chain(std::uint64_t span_id) const;
  /// Interned name of a span this store has seen, 0 otherwise.
  std::uint32_t name_of(std::uint64_t span_id) const;
  /// Start time of a span this store has seen, -1 otherwise.
  sim::Time start_of(std::uint64_t span_id) const;
  /// Root span id of the trace containing `span_id` (leaf-first walk).
  std::uint64_t root_of(std::uint64_t span_id) const;

  /// Append `other`'s closed spans (in `other`'s order) and fold its
  /// lineage and accounting in. Merging the same stores in the same
  /// order yields identical state — the campaign's cell-order
  /// reduction. Open spans in `other` are not carried (cells merge
  /// quiesced, post-run snapshots).
  void merge_from(const SpanStore& other);

  /// All closed spans as one JSON object, keys sorted at every level:
  /// {"dropped":..,"spans":[{"abandoned":..,"end":..,...}],...}.
  /// Ids render as fixed-width hex so diffs align.
  std::string to_json() const;

 private:
  struct Lineage {
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
    std::uint32_t name = 0;
    sim::Time start = 0;
  };

  // Span-id bit layout (see next_id): [tag16 | machine8 | seq40].
  static constexpr std::uint64_t kSeqMask = (1ULL << 40) - 1;
  static constexpr int kSeqBits = 40;
  static constexpr int kMachBits = 8;

  /// (id -> Lineage) index exploiting the id layout: the 40-bit
  /// sequence field indexes a dense per-machine lane, so the one write
  /// per span begun — which sits on the kernel IPC hot path — is a
  /// sequential vector append, not a random probe into a multi-MB hash
  /// table (the dominant tracing cost before this layout; see
  /// bench_obs). A lookup re-checks the id's 16-bit tag against the
  /// stored one; a mismatch means "never seen here" — an id from an
  /// unrelated history aliasing this (machine, seq), which chain()
  /// already treats as the protocol limit.
  class LineageIndex {
   public:
    /// Lineage fields flattened so `tag` lands in the padding hole
    /// after `name`: 32 bytes per span instead of 40. The lanes are
    /// the only structure that grows for the whole run, so every byte
    /// here is a byte of fresh (uncached, demand-faulted) memory
    /// written per span on the IPC hot path.
    struct Entry {
      std::uint64_t parent = 0;
      std::uint64_t trace = 0;
      std::uint32_t name = 0;
      std::uint16_t tag = 0;  // 0 = empty (next_id never mints tag 0)
      sim::Time start = 0;
    };
    static_assert(sizeof(Entry) <= 32, "lineage entry packs to 32 bytes");

    void insert(std::uint64_t id, const Lineage& lin) {
      const std::uint64_t seq = id & kSeqMask;
      if (seq == 0) return;
      const std::size_t mach =
          static_cast<std::size_t>((id >> kSeqBits) & 0xff);
      if (mach >= lanes_.size()) lanes_.resize(mach + 1);
      std::vector<Entry>& lane = lanes_[mach];
      const std::size_t idx = static_cast<std::size_t>(seq) - 1;
      const Entry e{lin.parent, lin.trace, lin.name,
                    static_cast<std::uint16_t>(id >> 48), lin.start};
      if (idx == lane.size()) {  // hot path: own ids arrive in order
        lane.push_back(e);
        ++count_;
        return;
      }
      if (idx >= lane.size()) lane.resize(idx + 1);
      if (lane[idx].tag == 0) {  // merges are first-wins
        lane[idx] = e;
        ++count_;
      }
    }

    const Entry* find(std::uint64_t id) const {
      const std::uint64_t seq = id & kSeqMask;
      const std::size_t mach =
          static_cast<std::size_t>((id >> kSeqBits) & 0xff);
      if (seq == 0 || mach >= lanes_.size()) return nullptr;
      const std::vector<Entry>& lane = lanes_[mach];
      if (seq > lane.size()) return nullptr;
      const Entry& e = lane[static_cast<std::size_t>(seq) - 1];
      if (e.tag != static_cast<std::uint16_t>(id >> 48)) return nullptr;
      return &e;
    }

    std::size_t size() const { return count_; }
    /// Per-machine lanes; lane m, slot i holds the span with sequence
    /// i + 1 on machine byte m (tag 0 = empty).
    const std::vector<std::vector<Entry>>& lanes() const { return lanes_; }

    /// Pre-size lane `mach` for `n` entries.
    void reserve_lane(std::size_t mach, std::size_t n) {
      if (mach >= lanes_.size()) lanes_.resize(mach + 1);
      lanes_[mach].reserve(n);
    }

   private:
    std::vector<std::vector<Entry>> lanes_;
    std::size_t count_ = 0;
  };

  std::uint64_t next_id(sim::Time now);
  /// Mint + register a new open span; returns {span id, trace id}.
  struct Opened {
    std::uint64_t id = 0;
    std::uint64_t trace = 0;
  };
  Opened open_span(int pid, sim::Time now, std::uint32_t name,
                   SpanContext parent);
  /// Index into open_ of `span_id`, -1 if not open. Scans backwards:
  /// scoped spans close LIFO and the set is small (in-flight IPC only).
  int find_open(std::uint64_t span_id) const;
  void close_at(std::size_t idx, sim::Time now, std::uint32_t note,
                bool abandoned);
  void close_span(sim::Time now, std::uint64_t span_id, std::uint32_t note,
                  bool abandoned);
  void push_done(const Span& s);
  /// current_ slot for `pid` (index pid + 1; the kernel records on -1).
  SpanContext* current_slot(int pid);

  bool enabled_ = true;
  int machine_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t total_begun_ = 0;
  std::uint64_t total_ended_ = 0;
  std::uint64_t total_abandoned_ = 0;
  std::uint64_t dropped_ = 0;
  SpanLog done_;
  /// Open spans, unordered (closed by swap-remove). Kept flat: the set
  /// is small and the begin/end pair sits on the kernel IPC hot path,
  /// where a node-allocating map shows up directly as IPC overhead
  /// (bench_obs gates the spans-on arm at 5%).
  std::vector<Span> open_;
  /// Current context per pid, indexed pid + 1 (slot 0 = the kernel's
  /// pid -1). Flat for the same hot-path reason.
  std::vector<SpanContext> current_;
  /// Parent/name/start of every span ever begun or merged — the
  /// causal index audit chains and the critical-path analyzer walk.
  LineageIndex lineage_;
};

/// One security-relevant decision with the causal chain that led to it,
/// snapshotted at record time (so it survives ring eviction and
/// process death).
struct AuditEntry {
  sim::Time time = 0;
  int machine = 0;
  int pid = -1;
  std::uint32_t kind = 0;  // interned: "acm.deny", "cap.deny", ...
  std::string detail;
  std::uint64_t trace_id = 0;
  /// Span ids leaf-first back to the originating endpoint.
  std::vector<std::uint64_t> chain;
  /// Interned names, parallel to `chain`.
  std::vector<std::uint32_t> chain_names;
};

/// Structured security audit journal: every ACM denial, capability
/// denial, PM kill audit, proxy tag/sequence rejection and attack
/// verdict, each with its full causal chain. Append-only; merged in
/// cell order like every other campaign artifact.
class AuditJournal {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Record a decision made by `pid` under context `at`. The chain is
  /// resolved against `spans` immediately.
  void record(sim::Time time, int machine, int pid, std::uint32_t kind,
              std::string detail, const SpanStore& spans, SpanContext at);
  void record(sim::Time time, int machine, int pid, const std::string& kind,
              std::string detail, const SpanStore& spans, SpanContext at);

  const std::vector<AuditEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Observer invoked synchronously after every recorded entry — the
  /// bundle wires the flight recorder here so a security denial
  /// snapshots the telemetry around it. Not called on merge_from: a
  /// merge replays history, it does not re-decide anything.
  void set_on_record(std::function<void(const AuditEntry&)> fn) {
    on_record_ = std::move(fn);
  }

  /// Entries whose kind equals `kind` (never interns).
  std::vector<AuditEntry> with_kind(const std::string& kind) const;

  void merge_from(const AuditJournal& other);

  /// {"entries":[{"chain":[{"name":..,"span":..},...],...}]} with keys
  /// sorted at every level.
  std::string to_json() const;

 private:
  bool enabled_ = true;
  std::vector<AuditEntry> entries_;
  std::function<void(const AuditEntry&)> on_record_;
};

/// Critical-path analysis over completed spans: for every trace whose
/// root is named `root_name` and which contains a leaf span named
/// `leaf_name`, decompose end-to-end latency (leaf.end - root.start)
/// into per-hop components along the root->leaf parent chain. Hop i
/// lasts from its own start to the next hop's start (the leaf: to its
/// own end), so the components telescope and their sums — and means —
/// add up to the end-to-end figure exactly.
///
/// Traces are grouped by path signature (the hop-name sequence); the
/// JSON reports each signature with per-hop mean/total microseconds,
/// keys sorted at every level.
std::string critical_path_json(const SpanStore& store,
                               const std::string& root_name,
                               const std::string& leaf_name);

}  // namespace mkbas::obs
