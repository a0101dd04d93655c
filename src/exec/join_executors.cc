// The binary joins: JoinExec, the one executor behind the hash,
// nested-loop, merge and index nested-loop join methods, and Apply, the
// tuple-iteration correlated subquery.
#include <algorithm>
#include <memory>
#include <set>

#include "exec/executors_internal.h"
#include "exec/expr_compile.h"
#include "exec/hash_join_state.h"
#include "testing/fault_injection.h"

namespace qopt::exec::internal {

namespace {

using plan::JoinType;

/// The one binary-join executor. The join methods (§2, §3: nested loops,
/// index nested loops, sort-merge, hash) differ only in how they find the
/// build (right) rows a probe (left) row may match, so each method is just
/// a match source (ForEachCandidate):
///   - hash: the rows of JoinBuildState's table with the probe key;
///   - nested loop: every row of the materialized right input, NULLs kept;
///   - merge: the equal-key run of the sorted right input, found by a
///     cursor that only moves forward (the left input is sorted too);
///   - index nested loop: the inner table's rows SortedIndex::Lookup finds
///     for the probe key that pass the inner scan's predicate, evaluated
///     on the storage row. Only the right child's output cells are copied;
///     the right child itself is never run.
/// Everything else is shared: the columnar build store (JoinBuildState's
/// build_cols; refilled per probe row by index nested loops), the residual
/// predicate, join-type emission, the pending matches of a probe row whose
/// output straddles batches, rows_joined and one governor tick per output
/// batch. In the probe-only variant the build side (a shared hash
/// JoinBuildState) was materialized elsewhere — the parallel gather's
/// build phase — and this executor only probes it.
///
/// The merge join drains its left input, then its right, at Init. The
/// nested-loop and merge builds cannot spill and charge every row's
/// modeled bytes. The self-building hash join decides to spill while it
/// runs: the build stays in memory until, with spill armed, its modeled
/// bytes cross the spill budget. It then turns into a grace hash join —
/// the columns built so far, the rest of the build input and then the
/// whole probe input are hash-partitioned into GracePartitions files, and
/// each partition pair is joined through its own JoinBuildState. Spilled
/// output is partition-major: a multiset match of the in-memory join.
class JoinExec : public Executor {
 public:
  JoinExec(const PhysicalPlan* plan, ExecContext* ctx,
           std::unique_ptr<Executor> left, std::unique_ptr<Executor> right)
      : Executor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)) {
    InitShape();
  }

  /// Probe-only hash join: `state` holds a finalized build side shared
  /// with other probe workers.
  JoinExec(const PhysicalPlan* plan, ExecContext* ctx,
           std::unique_ptr<Executor> left,
           std::shared_ptr<JoinBuildState> state)
      : Executor(plan, ctx),
        left_(std::move(left)),
        state_(std::move(state)) {
    InitShape();
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (done_ || ctx_->Failed()) return false;
    bool left_only = plan_->join_type == JoinType::kSemi ||
                     plan_->join_type == JoinType::kAnti;
    out->Reset(left_only ? left_width_ : left_width_ + right_width_,
               batch_capacity_);
    // The probe position and the current probe row's pending matches
    // persist across calls, so a batch never exceeds its capacity — even
    // at capacity 1, where a Limit may stop part-way through one key's
    // matches and rows_joined must count only the rows it took.
    while (!out->full() && !ctx_->Failed()) {
      if (match_pos_ < matches_.size()) {
        AppendCombined(match_prow_, matches_[match_pos_++], out);
        continue;
      }
      if (probe_pos_ >= probe_.ActiveSize()) {
        if (!NextProbeBatch()) {
          done_ = true;
          break;
        }
        probe_pos_ = 0;
        continue;
      }
      ProbeRow(probe_.ActiveIndex(probe_pos_++), out);
    }
    const size_t n = out->num_rows();
    ctx_->stats.rows_joined += n;
    if (n == 0 || ctx_->Failed()) return false;
    return ctx_->GovernorTick(n);
  }

 protected:
  void InitImpl() override {
    left_->Init();
    probe_.Reset(0, 0);
    probe_pos_ = 0;
    matches_.clear();
    match_pos_ = 0;
    done_ = false;
    if (method_ != Method::kNestedLoop) {
      auto lit = left_->colmap().find(plan_->left_key);
      QOPT_DCHECK(lit != left_->colmap().end());
      lk_ = lit->second;
    }
    residual_prog_ = nullptr;
    if (plan_->predicate) {
      expr::CompileEnv env;
      env.colmap = &combined_map_;
      for (const auto& c : plan_->children[0]->output_cols) {
        env.col_types.push_back(c.type);
      }
      for (const auto& c : plan_->children[1]->output_cols) {
        env.col_types.push_back(c.type);
      }
      residual_prog_ = expr::ResolveProgram(
          plan_, expr::kSlotJoinResidual, plan_->predicate.get(), env,
          /*as_predicate=*/true, ctx_);
      RecordExprMode(residual_prog_ != nullptr);
    }
    if (right_ == nullptr) return;  // probe-only: shared state is ready
    if (method_ != Method::kNestedLoop) {
      auto rit = right_->colmap().find(plan_->right_key);
      QOPT_DCHECK(rit != right_->colmap().end());
      rk_ = static_cast<size_t>(rit->second);
    }
    state_ = NewBuildState();  // fresh on rescan
    if (method_ == Method::kIndexNL) {
      OpenIndex();
      return;
    }
    right_->Init();
    parts_.Clear();
    next_part_ = 0;
    mem_charged_ = 0;
    uint64_t buffered = method_ == Method::kMerge ? DrainMergeLeft() : 0;
    size_t hint = ReserveHint(plan_->children[1]->est_rows);
    for (std::vector<Value>& col : state_->build_cols) col.reserve(hint);
    // The build side stays columnar: values move straight out of the child
    // batches (each batch is reset on the next NextBatch call), avoiding a
    // per-row Row materialization of the entire build input. Each row is
    // charged the ModeledRowBytes footprint; spill-armed, a hash build's
    // memory is bounded by the budget, so the governor sees row
    // bookkeeping only.
    const bool hash = method_ == Method::kHash;
    const SpillConfig& sp = ctx_->spill;
    const bool can_spill = hash && sp.armed;
    const uint64_t row_bytes = ModeledRowBytes(right_width_);
    build_rows_ = 0;
    RowBatch build;
    while (!ctx_->Failed() && right_->NextBatch(&build)) {
      for (size_t k = 0; k < build.ActiveSize(); ++k) {
        uint32_t r = build.ActiveIndex(k);
        // NULL keys never match a hash probe.
        if (hash && build.At(rk_, r).is_null()) continue;
        if (!ctx_->GovernorCharge(1, can_spill ? 0 : row_bytes)) break;
        if (parts_.spilled()) {
          for (size_t c = 0; c < right_width_; ++c) {
            spill_row_[c] = std::move(build.column(c)[r]);
          }
          if (!ctx_->Check(
                  GracePartitions::Append(parts_.build, spill_row_, rk_))) {
            break;
          }
          continue;
        }
        for (size_t c = 0; c < right_width_; ++c) {
          state_->build_cols[c].push_back(std::move(build.column(c)[r]));
        }
        ++build_rows_;
        buffered += row_bytes;
        if (can_spill && buffered > sp.budget_bytes &&
            state_->num_build_rows() > 1 && !BeginSpill()) {
          break;
        }
      }
    }
    if (ctx_->Failed()) return;
    if (!parts_.spilled()) {
      ChargeMem(buffered);
      if (hash) state_->Finalize(LeftKeyType(), RightKeyType());
      return;
    }
    // Seal the build partitions, then partition the ENTIRE probe side.
    state_.reset();
    if (!SealSpillFiles(parts_.build)) return;
    spill_row_.resize(left_width_);
    RowBatch probe;
    while (!ctx_->Failed() && left_->NextBatch(&probe)) {
      for (size_t k = 0; k < probe.ActiveSize(); ++k) {
        uint32_t r = probe.ActiveIndex(k);
        for (size_t c = 0; c < left_width_; ++c) {
          spill_row_[c] = std::move(probe.column(c)[r]);
        }
        if (!ctx_->Check(GracePartitions::Append(
                parts_.probe, spill_row_, static_cast<size_t>(lk_)))) {
          return;
        }
      }
    }
    if (ctx_->Failed()) return;
    SealSpillFiles(parts_.probe);
  }

 private:
  enum class Method { kHash, kNestedLoop, kMerge, kIndexNL };

  TypeId LeftKeyType() const {
    return plan_->children[0]->output_cols[static_cast<size_t>(lk_)].type;
  }
  TypeId RightKeyType() const {
    return plan_->children[1]->output_cols[rk_].type;
  }

  std::shared_ptr<JoinBuildState> NewBuildState() const {
    auto state = std::make_shared<JoinBuildState>();
    state->build_cols.assign(right_width_, {});
    state->rk = rk_;
    return state;
  }

  /// Merge: reads the whole (sorted) left input into `merge_left_`,
  /// charging each row; returns the modeled bytes held.
  uint64_t DrainMergeLeft() {
    merge_left_.clear();
    merge_next_ = 0;
    merge_pos_ = 0;
    const uint64_t row_bytes = ModeledRowBytes(left_width_);
    uint64_t bytes = 0;
    RowBatch b;
    while (!ctx_->Failed() && left_->NextBatch(&b)) {
      for (size_t k = 0; k < b.ActiveSize(); ++k) {
        if (!ctx_->GovernorCharge(1, row_bytes)) break;
        bytes += row_bytes;
      }
      BufferBatch(&b, &merge_left_);
    }
    return bytes;
  }

  /// Index nested loop: resolves the inner table and index, the storage
  /// position of each right output column, and the storage-row column map
  /// the inner scan's predicate is evaluated against (its prefilter
  /// columns need not be among the pruned output columns).
  void OpenIndex() {
    const PhysicalPlan& rp = *plan_->children[1];
    QOPT_DCHECK(rp.kind == PhysOpKind::kIndexScan);
    index_ = ctx_->storage->GetSortedIndex(rp.index_id);
    table_ = ctx_->storage->GetTable(rp.table_id);
    QOPT_DCHECK(index_ != nullptr && table_ != nullptr);
    inner_pos_.clear();
    for (const plan::OutputCol& c : rp.output_cols) {
      QOPT_DCHECK(c.id.rel == rp.rel_id);
      inner_pos_.push_back(static_cast<size_t>(c.id.col));
    }
    inner_map_.clear();
    if (rp.predicate) {
      std::set<ColumnId> cols;
      plan::CollectColumns(rp.predicate, &cols);
      for (ColumnId id : cols) {
        if (id.rel == rp.rel_id) inner_map_[id] = id.col;
      }
    }
    inner_row_.assign(table_->def().columns.size(), Value());
  }

  /// Fills `probe_` with the next probe batch: the merge join's buffered
  /// left input; the probe child in memory; once spilled, the current
  /// probe partition file, loading the next partition pair whenever one
  /// is exhausted. A spilled probe batch never spans partitions, since it
  /// is probed against the one loaded partition. False at the end.
  bool NextProbeBatch() {
    if (method_ == Method::kMerge) {
      if (merge_next_ >= merge_left_.size()) return false;
      probe_ = std::move(merge_left_[merge_next_++]);
      return true;
    }
    if (!parts_.spilled()) return left_->NextBatch(&probe_);
    probe_.Reset(left_width_, batch_capacity_);
    Row row;
    while (!probe_.full()) {
      if (state_ == nullptr) {
        if (next_part_ >= parts_.build.size() || !LoadPartition(next_part_)) {
          return false;
        }
        ++next_part_;
      }
      auto more = parts_.probe[next_part_ - 1]->ReadNext(&row);
      if (!ctx_->Check(more.status())) return false;
      if (!more.value()) {
        if (probe_.num_rows() > 0) break;  // probe these first
        state_.reset();  // partition pair done
        continue;
      }
      probe_.AppendRow(std::move(row));
    }
    return ctx_->GovernorTick(probe_.num_rows());
  }

  /// Opens the partition files and moves the columns built so far into the
  /// build partitions; `spill_row_` then serves as the build-row scratch.
  bool BeginSpill() {
    if (!ctx_->Check(parts_.Open(ctx_->spill.partitions, ctx_->spill.dir))) {
      return false;
    }
    spill_row_.resize(right_width_);
    for (size_t i = 0; i < state_->num_build_rows(); ++i) {
      for (size_t c = 0; c < right_width_; ++c) {
        spill_row_[c] = std::move(state_->build_cols[c][i]);
      }
      if (!ctx_->Check(
              GracePartitions::Append(parts_.build, spill_row_, rk_))) {
        return false;
      }
    }
    state_ = NewBuildState();
    return true;
  }

  /// Reads build partition `p` into a fresh JoinBuildState and rewinds its
  /// probe file.
  bool LoadPartition(size_t p) {
    if (!ctx_->Check(parts_.build[p]->Rewind()) ||
        !ctx_->Check(parts_.probe[p]->Rewind())) {
      return false;
    }
    state_ = NewBuildState();
    Row row;
    for (;;) {
      auto more = parts_.build[p]->ReadNext(&row);
      if (!ctx_->Check(more.status())) return false;
      if (!more.value()) break;
      for (size_t c = 0; c < right_width_; ++c) {
        state_->build_cols[c].push_back(std::move(row[c]));
      }
    }
    // One partition is resident at a time: the peak is the largest one.
    uint64_t bytes = state_->num_build_rows() * ModeledRowBytes(right_width_);
    if (bytes > mem_charged_) {
      ChargeMem(bytes - mem_charged_);
      mem_charged_ = bytes;
    }
    state_->Finalize(LeftKeyType(), RightKeyType());
    return true;
  }

  /// The method, widths and the combined output column map, derived from
  /// the plan so the probe-only variant (no right executor) agrees exactly
  /// with the self-building one.
  void InitShape() {
    switch (plan_->kind) {
      case PhysOpKind::kNestedLoopJoin: method_ = Method::kNestedLoop; break;
      case PhysOpKind::kMergeJoin: method_ = Method::kMerge; break;
      case PhysOpKind::kIndexNestedLoopJoin: method_ = Method::kIndexNL; break;
      default: method_ = Method::kHash; break;
    }
    const PhysicalPlan& lp = *plan_->children[0];
    const PhysicalPlan& rp = *plan_->children[1];
    left_width_ = lp.output_cols.size();
    right_width_ = rp.output_cols.size();
    for (size_t i = 0; i < left_width_; ++i) {
      combined_map_[lp.output_cols[i].id] = static_cast<int>(i);
    }
    for (size_t i = 0; i < right_width_; ++i) {
      combined_map_[rp.output_cols[i].id] =
          static_cast<int>(left_width_ + i);
    }
  }

  /// Calls fn(build_index) for each build row that may match probe row
  /// `prow`, before the residual: the method's match source.
  template <typename Fn>
  void ForEachCandidate(uint32_t prow, Fn&& fn) {
    if (method_ == Method::kNestedLoop) {
      for (size_t b = 0; b < build_rows_; ++b) fn(b);
      return;
    }
    const Value& key = probe_.At(lk_, prow);
    if (key.is_null()) return;  // a NULL key matches nothing
    switch (method_) {
      case Method::kHash:
        state_->ForEachMatch(key, fn);
        return;
      case Method::kMerge: {
        const std::vector<Value>& keys = state_->build_cols[rk_];
        while (merge_pos_ < keys.size() &&
               (keys[merge_pos_].is_null() ||
                keys[merge_pos_].Compare(key) < 0)) {
          ++merge_pos_;
        }
        for (size_t j = merge_pos_;
             j < keys.size() && keys[j].Compare(key) == 0; ++j) {
          fn(j);
        }
        return;
      }
      case Method::kIndexNL:
        LookupIndex(key, fn);
        return;
      case Method::kNestedLoop:
        return;
    }
  }

  /// Index nested loop: looks `key` up in the inner index, touching the
  /// B-tree path and each row's data page, and copies the output cells of
  /// the rows passing the inner scan's predicate into the (per probe row)
  /// build store.
  template <typename Fn>
  void LookupIndex(const Value& key, Fn&& fn) {
    QOPT_FAULT_POINT_CTX("storage.index.lookup", ctx_, );
    ++ctx_->stats.index_lookups;
    // B-tree path: inner levels (shared, cache quickly) + the leaf holding
    // this key.
    for (double level = 0; level + 1 < index_->tree_height(); ++level) {
      ctx_->TouchPage(BufferPoolSim::IndexPage(
          index_->def().id, static_cast<uint64_t>(level)));
    }
    ctx_->TouchPage(BufferPoolSim::IndexPage(
        index_->def().id,
        1000 + key.Hash() % static_cast<uint64_t>(index_->leaf_pages())));
    for (std::vector<Value>& col : state_->build_cols) col.clear();
    const PhysicalPlan& rp = *plan_->children[1];
    const double rows =
        std::max<double>(1.0, static_cast<double>(table_->num_rows()));
    size_t b = 0;
    for (uint32_t id : index_->Lookup(key)) {
      ctx_->TouchPage(BufferPoolSim::DataPage(
          rp.table_id, static_cast<uint64_t>(static_cast<double>(id) *
                                             table_->num_pages() / rows)));
      ++ctx_->stats.rows_scanned;
      if (rp.predicate) {
        for (const auto& [col, pos] : inner_map_) {
          inner_row_[static_cast<size_t>(pos)] =
              table_->Get(id, static_cast<size_t>(pos));
        }
        EvalContext ev{&inner_map_, &inner_row_, &ctx_->params};
        if (!EvalPredicate(rp.predicate, ev)) continue;
      }
      for (size_t c = 0; c < right_width_; ++c) {
        state_->build_cols[c].push_back(table_->Get(id, inner_pos_[c]));
      }
      fn(b++);
    }
  }

  /// Probes one row: collects the candidates passing the residual into
  /// `matches_` (emitted by NextBatchImpl as combined rows for inner,
  /// cross and matched left outer joins) and emits at most one row itself
  /// — the null-padded row of an unmatched left outer probe, or the left
  /// row of a semi/anti join.
  void ProbeRow(uint32_t prow, RowBatch* out) {
    matches_.clear();
    match_pos_ = 0;
    match_prow_ = prow;
    if (residual_prog_ != nullptr) {
      // Vectorized residual: gather the candidates into a scratch batch
      // (only the columns the program reads) and filter them in one
      // program run instead of one tree-walk per candidate.
      candidates_.clear();
      ForEachCandidate(prow, [&](size_t b) { candidates_.push_back(b); });
      FilterCandidates(prow);
    } else {
      ForEachCandidate(prow, [&](size_t b) {
        if (plan_->predicate && !ResidualPass(prow, b)) return;
        matches_.push_back(b);
      });
    }
    switch (plan_->join_type) {
      case JoinType::kInner:
      case JoinType::kCross:
        break;
      case JoinType::kLeftOuter:
        if (matches_.empty()) AppendNullPadded(prow, out);
        break;
      case JoinType::kSemi:
      case JoinType::kAnti:
        if (matches_.empty() == (plan_->join_type == JoinType::kAnti)) {
          AppendLeft(prow, out);
        }
        matches_.clear();
        break;
    }
  }

  /// Runs the compiled residual over `candidates_`, appending survivors to
  /// `matches_` (in candidate order, matching the interpreted path). The
  /// scratch batch holds at most kDefaultBatchCapacity candidates, so it
  /// stays cache-resident however many rows one probe row meets (every
  /// build row, in a nested loop).
  void FilterCandidates(uint32_t prow) {
    for (size_t begin = 0; begin < candidates_.size();
         begin += kDefaultBatchCapacity) {
      const size_t* cand = candidates_.data() + begin;
      const size_t m =
          std::min(kDefaultBatchCapacity, candidates_.size() - begin);
      scratch_.Reset(left_width_ + right_width_, m);
      for (int pos : residual_prog_->referenced_cols()) {
        std::vector<Value>& col = scratch_.column(static_cast<size_t>(pos));
        col.resize(m);
        if (static_cast<size_t>(pos) < left_width_) {
          // Left columns splat the probe row's value.
          const Value& v = probe_.At(static_cast<size_t>(pos), prow);
          for (size_t k = 0; k < m; ++k) col[k] = v;
        } else {
          const std::vector<Value>& build =
              state_->build_cols[static_cast<size_t>(pos) - left_width_];
          for (size_t k = 0; k < m; ++k) col[k] = build[cand[k]];
        }
      }
      scratch_.SetIdentitySelection(m);
      residual_prog_->FilterBatch(&scratch_, &expr_state_);
      for (uint32_t k : scratch_.selection()) matches_.push_back(cand[k]);
    }
  }

  bool ResidualPass(uint32_t prow, size_t bidx) {
    combined_.clear();
    combined_.reserve(left_width_ + right_width_);
    for (size_t c = 0; c < left_width_; ++c) {
      combined_.push_back(probe_.At(c, prow));
    }
    for (size_t c = 0; c < right_width_; ++c) {
      combined_.push_back(state_->build_cols[c][bidx]);
    }
    EvalContext ev{&combined_map_, &combined_, &ctx_->params};
    return EvalPredicate(plan_->predicate, ev);
  }

  void AppendCombined(uint32_t prow, size_t bidx, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(probe_.At(c, prow));
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(left_width_ + c).push_back(state_->build_cols[c][bidx]);
    }
    out->CommitRow();
  }

  void AppendNullPadded(uint32_t prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(probe_.At(c, prow));
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(left_width_ + c).push_back(Value::Null());
    }
    out->CommitRow();
  }

  void AppendLeft(uint32_t prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(probe_.At(c, prow));
    }
    out->CommitRow();
  }

  Method method_ = Method::kHash;
  std::unique_ptr<Executor> left_;
  /// Null in the probe-only variant; built but never run by index nested
  /// loops.
  std::unique_ptr<Executor> right_;
  /// The build side being probed: the whole build in memory, or once
  /// spilled the loaded partition (null between partitions), or the index
  /// nested loop's matches of the current probe row.
  std::shared_ptr<JoinBuildState> state_;
  size_t rk_ = 0;  ///< Build key position in the right child's layout.
  size_t build_rows_ = 0;  ///< Nested loop: rows in the build store.
  /// Merge: the buffered left input, the next batch of it to probe, and
  /// the build cursor (first row whose key may equal the probe key).
  std::vector<RowBatch> merge_left_;
  size_t merge_next_ = 0;
  size_t merge_pos_ = 0;
  /// Index nested loop: the inner index and table, the storage position
  /// of each right output column, the storage-row column map, and the
  /// scratch storage row holding the cells the inner predicate reads.
  const SortedIndex* index_ = nullptr;
  const Table* table_ = nullptr;
  std::vector<size_t> inner_pos_;
  ColMap inner_map_;
  Row inner_row_;
  GracePartitions parts_;  ///< Empty until the build crosses the budget.
  size_t next_part_ = 0;   ///< Next partition pair to load.
  Row spill_row_;         ///< Row scratch for partition-file appends.
  uint64_t mem_charged_ = 0;  ///< Largest partition charged via ChargeMem.
  size_t left_width_ = 0;
  size_t right_width_ = 0;
  ColMap combined_map_;
  /// Matching build rows of probe row `match_prow_`; the first
  /// `match_pos_` are already emitted.
  std::vector<size_t> matches_;
  size_t match_pos_ = 0;
  uint32_t match_prow_ = 0;
  int lk_ = 0;
  RowBatch probe_;
  size_t probe_pos_ = 0;
  bool done_ = false;
  Row combined_;
  std::shared_ptr<const expr::ExprProgram> residual_prog_;
  std::vector<size_t> candidates_;
  RowBatch scratch_;
  expr::ExprExecState expr_state_;
};

/// Tuple-iteration correlated subquery: for each outer row, binds the
/// correlated parameters and re-executes the inner subtree (§4.2.2's
/// unoptimized nested execution — the baseline the unnesting rules beat).
/// Not a JoinExec match source: the inner subtree is rerun per outer row,
/// not read once.
class ApplyExec : public Executor {
 public:
  ApplyExec(const PhysicalPlan* plan, ExecContext* ctx,
            std::unique_ptr<Executor> left, std::unique_ptr<Executor> right)
      : Executor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)),
        left_in_(left_.get()),
        right_in_(right_.get()) {
    // Semi/anti predicates see the outer row followed by the inner row.
    combined_map_ = left_->colmap();
    int offset = static_cast<int>(left_->plan().output_cols.size());
    for (const auto& [id, pos] : right_->colmap()) {
      combined_map_[id] = pos + offset;
    }
  }

  void InitImpl() override {
    left_->Init();
    left_in_.Reset();  // the right side is re-initialized per outer row
  }

  bool NextBatchImpl(RowBatch* out) override {
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    Row row;
    while (!out->full() && !ctx_->Failed() && left_in_.NextRow(&row)) {
      if (!ExecuteInner(&row)) continue;
      if (!ctx_->GovernorTick()) break;
      out->AppendRow(std::move(row));
      ++ctx_->stats.rows_joined;
    }
    return out->num_rows() > 0 && !ctx_->Failed();
  }

 private:
  /// Re-executes the inner subtree with the correlated parameters bound
  /// from outer row `*row`; true iff `*row` is an output row (a scalar
  /// apply appends the subquery's value to it).
  bool ExecuteInner(Row* row) {
    // Parameters not produced by our left child belong to an enclosing
    // Apply and are already present in ctx_->params.
    for (ColumnId c : plan_->correlated_cols) {
      auto it = left_->colmap().find(c);
      if (it != left_->colmap().end()) {
        ctx_->params[c] = (*row)[it->second];
      }
    }
    right_->Init();
    right_in_.Reset();
    if (ctx_->Failed()) return false;
    ++ctx_->stats.subquery_executions;
    // Each subquery re-execution materializes its outer binding; charge
    // it so unbounded Apply loops hit the row budget.
    if (!ctx_->GovernorCharge(1, ModeledRowBytes(*row))) return false;

    Row r;
    if (plan_->apply_type == plan::ApplyType::kScalar) {
      if (right_in_.NextRow(&r)) {
        auto it = right_->colmap().find(plan_->scalar_output);
        QOPT_DCHECK(it != right_->colmap().end());
        row->push_back(r[it->second]);
      } else {
        row->push_back(Value::Null());
      }
      return true;
    }
    bool found = false;
    while (!found && right_in_.NextRow(&r)) {
      found = !plan_->predicate || PredicateHolds(*row, r);
    }
    return found == (plan_->apply_type == plan::ApplyType::kSemi);
  }

  bool PredicateHolds(const Row& outer, const Row& inner) const {
    Row combined = outer;
    combined.insert(combined.end(), inner.begin(), inner.end());
    EvalContext ev{&combined_map_, &combined, &ctx_->params};
    return EvalPredicate(plan_->predicate, ev);
  }

  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ChildCursor left_in_;
  ChildCursor right_in_;
  ColMap combined_map_;
};

}  // namespace

std::unique_ptr<Executor> NewJoinExec(const PhysicalPlan* plan,
                                      ExecContext* ctx,
                                      std::unique_ptr<Executor> left,
                                      std::unique_ptr<Executor> right) {
  return std::make_unique<JoinExec>(plan, ctx, std::move(left),
                                    std::move(right));
}

std::unique_ptr<Executor> NewBatchHashProbeExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::unique_ptr<Executor> left, std::shared_ptr<JoinBuildState> state) {
  return std::make_unique<JoinExec>(plan, ctx, std::move(left),
                                    std::move(state));
}

std::unique_ptr<Executor> NewApplyExec(const PhysicalPlan* plan,
                                       ExecContext* ctx,
                                       std::unique_ptr<Executor> left,
                                       std::unique_ptr<Executor> right) {
  return std::make_unique<ApplyExec>(plan, ctx, std::move(left),
                                     std::move(right));
}

}  // namespace qopt::exec::internal
