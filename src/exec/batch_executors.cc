// Vectorized (batch-at-a-time) implementations of the hot physical
// operators: table/index scan, filter, projection and hash join. They are
// the only implementations of these operators; every execution mode builds
// them, at the batch capacity the builder sets per executor.
//
// Each operator moves RowBatches instead of single Rows and evaluates
// expressions a column at a time, with no per-row virtual call and no
// per-row std::vector<Value> copy. Filters only shrink the batch's
// selection vector; projection and join output build compacted column
// vectors directly. Every other operator produces batches too (executors.h)
// but works on rows inside them.
//
// ExecStats exactness: operators increment rows_scanned / rows_joined /
// index_lookups per row and touch buffer-pool pages in row order, and no
// batch ever holds more than its capacity, so at capacity 1 they do exactly
// the work a row-at-a-time engine would, and at any capacity the counters
// match wherever the consumer drains its input (the builder runs every
// other subtree at capacity 1; the cost-model validation experiment E17
// depends on this). The only shortcut taken is coalescing *immediately
// adjacent* touches of the same data page during a table scan — a repeat
// touch of the page at the LRU front is a guaranteed hit and a no-op, so
// skipping the hash lookup preserves both the hit/miss accounting and the
// eviction order.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "exec/executors_internal.h"
#include "exec/expr_compile.h"
#include "exec/hash_join_state.h"
#include "exec/morsel.h"
#include "testing/fault_injection.h"

namespace qopt::exec::internal {

namespace {

using plan::JoinType;

/// Vectorized sequential / index-range scan with an optional residual
/// filter evaluated batch-at-a-time. With a MorselSource attached, the
/// sequential scan pulls page-aligned row ranges from the shared cursor
/// instead of walking the whole table — the parallel mode's morsel-driven
/// scan (index scans never run morsel-driven).
class BatchScanExec : public Executor {
 public:
  BatchScanExec(const PhysicalPlan* plan, ExecContext* ctx,
                MorselSource* morsels = nullptr)
      : Executor(plan, ctx), morsels_(morsels) {
    // Plans are column-pruned, so output position k copies storage
    // position storage_pos_[k].
    for (const plan::OutputCol& c : plan->output_cols) {
      QOPT_DCHECK(c.id.rel == plan->rel_id);
      storage_pos_.push_back(static_cast<size_t>(c.id.col));
    }
    SplitPredicate();
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (ctx_->Failed()) return false;
    QOPT_FAULT_POINT_CTX("exec.batch.alloc", ctx_, false);
    size_t n = use_ids_ ? row_ids_.size() : table_->num_rows();
    if (morsels_ != nullptr) {
      // A batch never spans morsels: the page-run accounting below stays
      // within the claimed page-aligned range.
      if (pos_ >= limit_ && !morsels_->Next(&pos_, &limit_)) return false;
    } else if (use_ids_) {
      limit_ = n;
      if (pos_ >= n) return false;
    } else {
      // Sequential scan over the surviving partitions' row ranges (one
      // full-table range when unpartitioned or unpruned). A batch never
      // spans ranges.
      while (pos_ >= limit_) {
        if (range_idx_ >= ranges_.size()) return false;
        pos_ = ranges_[range_idx_].first;
        limit_ = ranges_[range_idx_].second;
        ++range_idx_;
      }
    }
    const size_t batch_start = pos_;
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    double rows = std::max<double>(1.0, static_cast<double>(table_->num_rows()));
    if (!use_ids_) {
      // Sequential scan: touches of the same data page are immediately
      // adjacent, so a repeat touch is a guaranteed LRU-front hit and can
      // skip the pool; stats are bulk-incremented after the loop. Rows
      // failing the constant-comparison prefilter are never copied.
      // Page numbers are monotone in rid, so the page formula runs once
      // per page run (the exact boundary is found with the same per-row
      // formula), not once per row.
      double pages = table_->num_pages();
      auto page_of = [&](size_t rid) {
        return static_cast<uint64_t>(static_cast<double>(rid) * pages / rows);
      };
      size_t start = pos_;
      size_t run_end = pos_;  // forces page lookup on the first row
      uint64_t cur_page = 0;
      while (pos_ < limit_ && !out->full()) {
        if (pos_ >= run_end) {
          cur_page = page_of(pos_);
          if (ctx_->buffer_pool.Touch(
                  BufferPoolSim::DataPage(plan_->table_id, cur_page))) {
            ctx_->stats.modeled_pages_read += 1;
          }
          size_t hi = pages > 0
                          ? static_cast<size_t>(
                                static_cast<double>(cur_page + 1) * rows /
                                pages)
                          : limit_;
          hi = std::clamp(hi, pos_ + 1, limit_);
          while (hi < limit_ && page_of(hi) == cur_page) ++hi;
          while (hi > pos_ + 1 && page_of(hi - 1) != cur_page) --hi;
          run_end = hi;
        }
        const Row& row = table_->row(static_cast<uint32_t>(pos_));
        ++pos_;
        if (FastPass(row)) AppendStorageRow(row, out);
      }
      ctx_->stats.page_touches += pos_ - start;
      ctx_->stats.rows_scanned += pos_ - start;
    } else {
      // Index scan: leaf and data pages interleave, so every touch goes
      // through the pool in row order.
      while (pos_ < n && !out->full()) {
        uint32_t rid = row_ids_[pos_];
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            plan_->index_id, 1000 + pos_ / 256));
        ctx_->TouchPage(BufferPoolSim::DataPage(
            plan_->table_id,
            static_cast<uint64_t>(
                static_cast<double>(rid) * table_->num_pages() / rows)));
        ++ctx_->stats.rows_scanned;
        ++pos_;
        const Row& row = table_->row(rid);
        if (FastPass(row)) AppendStorageRow(row, out);
      }
    }
    if (!ctx_->GovernorTick(pos_ - batch_start)) return false;
    if (residual_) {
      if (residual_prog_ != nullptr) {
        residual_prog_->FilterBatch(out, &expr_state_);
      } else {
        BatchEvalContext bev{&colmap_, out, &ctx_->params};
        EvalPredicateBatch(residual_, bev, out);
      }
    }
    return true;
  }

 protected:
  void InitImpl() override {
    QOPT_FAULT_POINT_CTX("storage.scan.open", ctx_, );
    table_ = ctx_->storage->GetTable(plan_->table_id);
    QOPT_DCHECK(table_ != nullptr);
    pos_ = 0;
    limit_ = 0;  // morsel/range mode claims a range on the first NextBatch
    ranges_.clear();
    range_idx_ = 0;
    if (plan_->total_partitions > 0 &&
        plan_->total_partitions == table_->num_partitions()) {
      for (int p : plan_->partitions) {
        ranges_.push_back(table_->PartitionRange(p));
      }
    } else {
      ranges_.push_back({0, table_->num_rows()});
    }
    // The split is deterministic per plan node, so the compiled residual
    // can be cached on the node and shared by every executor instance
    // (including morsel-parallel workers).
    residual_prog_ = nullptr;
    if (residual_) {
      residual_prog_ = expr::ResolveProgram(
          plan_, expr::kSlotPredicate, residual_.get(),
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_);
      RecordExprMode(residual_prog_ != nullptr);
    }
    if (plan_->kind == PhysOpKind::kIndexScan) {
      QOPT_FAULT_POINT_CTX("storage.index.lookup", ctx_, );
      const SortedIndex* index = ctx_->storage->GetSortedIndex(plan_->index_id);
      QOPT_DCHECK(index != nullptr);
      std::optional<IndexBound> lo, hi;
      if (plan_->lo.has_value()) {
        lo = IndexBound{plan_->lo->value, plan_->lo->inclusive};
      }
      if (plan_->hi.has_value()) {
        hi = IndexBound{plan_->hi->value, plan_->hi->inclusive};
      }
      row_ids_ = index->RangeScan(lo, hi);
      use_ids_ = true;
      for (double level = 0; level < index->tree_height(); ++level) {
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            plan_->index_id, static_cast<uint64_t>(level)));
      }
    } else {
      use_ids_ = false;
    }
  }

 private:
  /// Splits the scan predicate into prefilter conjuncts (ScanPrefilter:
  /// `column <op> constant`, checked directly against storage rows before
  /// any copy) and a residual evaluated batch-wise. Scalar comparison
  /// semantics are Value::Compare with NULL rejecting, exactly what
  /// FastPass does. Depends only on the plan node, so it runs once per
  /// executor, not per rescan.
  void SplitPredicate() {
    residual_ = plan_->predicate;
    if (!plan_->predicate) return;
    std::vector<plan::BExpr> conjuncts;
    plan::SplitConjuncts(plan_->predicate, &conjuncts);
    std::vector<plan::BExpr> rest;
    for (const plan::BExpr& c : conjuncts) {
      ScanPrefilter pre;
      if (!MatchScanPrefilter(c, plan_->rel_id, &pre)) {
        rest.push_back(c);
        continue;
      }
      FastPred p{static_cast<size_t>(pre.column.col), pre.op,
                 std::move(pre.constant)};
      if (pre.type == TypeId::kInt64 && p.constant.type() == TypeId::kInt64) {
        p.kind = CmpKind::kIntInt;
        p.iconst = p.constant.AsInt();
      } else if (IsNumeric(pre.type) && IsNumeric(p.constant.type())) {
        p.kind = CmpKind::kNumeric;
        p.dconst = p.constant.AsNumeric();
      }
      fast_preds_.push_back(std::move(p));
    }
    if (!fast_preds_.empty()) {
      residual_ =
          rest.empty() ? nullptr : plan::MakeConjunction(std::move(rest));
    }
  }

  /// How a FastPred's comparison executes. Specialized kinds inline the
  /// relevant branch of Value::Compare (same coercion rules, no dispatch).
  enum class CmpKind { kIntInt, kNumeric, kGeneric };

  struct FastPred {
    size_t pos;        ///< Column position in the storage row.
    ast::BinaryOp op;  ///< Comparison, normalized column-on-left.
    Value constant;
    CmpKind kind = CmpKind::kGeneric;
    int64_t iconst = 0;  ///< kIntInt
    double dconst = 0;   ///< kNumeric
  };

  static bool KeepByOp(ast::BinaryOp op, int c) {
    switch (op) {
      case ast::BinaryOp::kEq: return c == 0;
      case ast::BinaryOp::kNe: return c != 0;
      case ast::BinaryOp::kLt: return c < 0;
      case ast::BinaryOp::kLe: return c <= 0;
      case ast::BinaryOp::kGt: return c > 0;
      case ast::BinaryOp::kGe: return c >= 0;
      default: return false;  // unreachable: MatchColumnConstant filters ops
    }
  }

  /// True iff `row` passes every constant-comparison conjunct (NULL in the
  /// column rejects, matching three-valued comparison semantics).
  bool FastPass(const Row& row) const {
    for (const FastPred& p : fast_preds_) {
      const Value& v = row[p.pos];
      if (v.is_null()) return false;
      int c = 0;
      switch (p.kind) {
        case CmpKind::kIntInt: {
          int64_t a = v.AsInt();
          c = a < p.iconst ? -1 : (a > p.iconst ? 1 : 0);
          break;
        }
        case CmpKind::kNumeric: {
          double a = v.AsNumeric();
          c = a < p.dconst ? -1 : (a > p.dconst ? 1 : 0);
          break;
        }
        case CmpKind::kGeneric:
          c = v.Compare(p.constant);
          break;
      }
      if (!KeepByOp(p.op, c)) return false;
    }
    return true;
  }

  /// Copies the emitted cells of storage row `row` into `out`.
  void AppendStorageRow(const Row& row, RowBatch* out) const {
    for (size_t k = 0; k < storage_pos_.size(); ++k) {
      out->column(k).push_back(row[storage_pos_[k]]);
    }
    out->CommitRow();
  }

  const Table* table_ = nullptr;
  std::vector<size_t> storage_pos_;  ///< Storage position per output column.
  std::vector<uint32_t> row_ids_;
  std::vector<FastPred> fast_preds_;
  plan::BExpr residual_;
  std::shared_ptr<const expr::ExprProgram> residual_prog_;
  expr::ExprExecState expr_state_;
  bool use_ids_ = false;
  size_t pos_ = 0;
  size_t limit_ = 0;  ///< Exclusive end of the current sequential range.
  /// Row ranges of the surviving partitions (serial sequential scan).
  std::vector<std::pair<size_t, size_t>> ranges_;
  size_t range_idx_ = 0;
  MorselSource* morsels_ = nullptr;  ///< Shared scan cursor (parallel mode).
};

/// Vectorized filter: refines the child batch's selection vector in place;
/// no data is copied or moved.
class BatchFilterExec : public Executor {
 public:
  BatchFilterExec(const PhysicalPlan* plan, ExecContext* ctx,
                  std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    if (!child_->NextBatch(out)) return false;
    if (prog_ != nullptr) {
      prog_->FilterBatch(out, &expr_state_);
    } else {
      BatchEvalContext bev{&colmap_, out, &ctx_->params};
      EvalPredicateBatch(plan_->predicate, bev, out);
    }
    return true;
  }

 protected:
  void InitImpl() override {
    child_->Init();
    prog_ = nullptr;
    if (plan_->predicate) {
      prog_ = expr::ResolveProgram(
          plan_, expr::kSlotPredicate, plan_->predicate.get(),
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_);
      RecordExprMode(prog_ != nullptr);
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  std::shared_ptr<const expr::ExprProgram> prog_;
  expr::ExprExecState expr_state_;
};

/// Vectorized projection: evaluates each output expression over the whole
/// input batch, emitting a compacted batch.
class BatchProjectExec : public Executor {
 public:
  BatchProjectExec(const PhysicalPlan* plan, ExecContext* ctx,
                   std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    do {
      if (!child_->NextBatch(&in_)) return false;
    } while (in_.ActiveSize() == 0);
    size_t n = in_.ActiveSize();
    // A compacted input batch (identity selection, guaranteed by join and
    // unfiltered scan outputs) lets pure column-ref projections move the
    // input column instead of gathering a copy — precomputed in InitImpl.
    bool identity = n == in_.num_rows();
    out->Reset(plan_->proj_exprs.size(), n);
    BatchEvalContext bev{&child_->colmap(), &in_, &ctx_->params};
    std::vector<Value> col;
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      if (identity && move_src_[c] >= 0) {
        out->AdoptColumn(c, std::move(in_.column(move_src_[c])));
        continue;
      }
      if (progs_[c] != nullptr) {
        progs_[c]->EvalColumn(in_, &expr_state_, &col);
      } else {
        EvalExprBatch(*plan_->proj_exprs[c], bev, &col);
      }
      out->AdoptColumn(c, std::move(col));
      col.clear();
    }
    out->SetIdentitySelection(n);
    return true;
  }

 protected:
  void InitImpl() override {
    child_->Init();
    // move_src_[c] = input column position when proj_exprs[c] is a plain
    // column reference and no other output expression reads that column
    // (a column may be moved out only once); -1 otherwise.
    move_src_.assign(plan_->proj_exprs.size(), -1);
    std::map<ColumnId, int> referencing_exprs;
    for (const plan::BExpr& e : plan_->proj_exprs) {
      std::set<ColumnId> cols;
      plan::CollectColumns(e, &cols);
      for (ColumnId id : cols) ++referencing_exprs[id];
    }
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      const plan::BExpr& e = plan_->proj_exprs[c];
      if (e->kind != plan::BoundKind::kColumn) continue;
      if (referencing_exprs[e->column] != 1) continue;
      auto it = child_->colmap().find(e->column);
      if (it != child_->colmap().end()) move_src_[c] = it->second;
    }
    // One program per output expression, evaluated against the child's
    // column layout. Pure-move columns still compile: non-identity input
    // batches take the evaluation path.
    progs_.assign(plan_->proj_exprs.size(), nullptr);
    const expr::CompileEnv env = expr::MakeCompileEnv(
        child_->colmap(), plan_->children[0]->output_cols);
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      progs_[c] = expr::ResolveProgram(
          plan_, expr::kSlotProjBase + static_cast<int>(c),
          plan_->proj_exprs[c].get(), env, /*as_predicate=*/false, ctx_);
      RecordExprMode(progs_[c] != nullptr);
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  RowBatch in_;
  std::vector<int> move_src_;
  std::vector<std::shared_ptr<const expr::ExprProgram>> progs_;
  expr::ExprExecState expr_state_;
};

/// Vectorized hash join: builds on the right input (batch-drained), probes
/// left batches, filling output batches up to capacity. Supports inner,
/// cross, left outer, semi and anti joins with a residual predicate. In the
/// probe-only variant the build side (a shared JoinBuildState) was
/// materialized elsewhere — the parallel gather's build phase — and this
/// executor only probes it.
///
/// The self-building variant decides to spill while it runs: the build
/// stays in memory until, with spill armed, its modeled bytes cross the
/// spill budget. It then turns into a grace hash join — the columns built
/// so far, the rest of the build input and then the whole probe input are
/// hash-partitioned into GracePartitions files, and each partition pair is
/// joined through its own JoinBuildState. Spilled output is
/// partition-major: a multiset match of the in-memory join.
class BatchHashJoinExec : public Executor {
 public:
  BatchHashJoinExec(const PhysicalPlan* plan, ExecContext* ctx,
                    std::unique_ptr<Executor> left,
                    std::unique_ptr<Executor> right)
      : Executor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)) {
    InitShape();
  }

  /// Probe-only: `state` holds a finalized build side shared with other
  /// probe workers.
  BatchHashJoinExec(const PhysicalPlan* plan, ExecContext* ctx,
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
    while (!out->full()) {
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
    return out->num_rows() > 0 || !done_;
  }

 protected:
  void InitImpl() override {
    left_->Init();
    probe_.Reset(0, 0);
    probe_pos_ = 0;
    matches_.clear();
    match_pos_ = 0;
    done_ = false;
    auto lit = left_->colmap().find(plan_->left_key);
    QOPT_DCHECK(lit != left_->colmap().end());
    lk_ = lit->second;
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
    right_->Init();
    parts_.Clear();
    next_part_ = 0;
    mem_charged_ = 0;
    auto rit = right_->colmap().find(plan_->right_key);
    QOPT_DCHECK(rit != right_->colmap().end());
    rk_ = static_cast<size_t>(rit->second);
    state_ = NewBuildState();  // fresh on rescan
    size_t hint = ReserveHint(plan_->children[1]->est_rows);
    for (std::vector<Value>& col : state_->build_cols) col.reserve(hint);
    // The build side stays columnar: values move straight out of the child
    // batches (each batch is reset on the next NextBatch call), avoiding a
    // per-row Row materialization of the entire build input. Each row is
    // charged the ModeledRowBytes footprint; spill-armed, memory is bounded
    // by the budget, so the governor sees row bookkeeping only.
    const SpillConfig& sp = ctx_->spill;
    const uint64_t row_bytes = ModeledRowBytes(right_width_);
    uint64_t buffered = 0;
    RowBatch build;
    while (!ctx_->Failed() && right_->NextBatch(&build)) {
      for (size_t k = 0; k < build.ActiveSize(); ++k) {
        uint32_t r = build.ActiveIndex(k);
        if (build.At(rk_, r).is_null()) continue;  // NULL keys never match
        if (!ctx_->GovernorCharge(1, sp.armed ? 0 : row_bytes)) break;
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
        buffered += row_bytes;
        if (sp.armed && buffered > sp.budget_bytes &&
            state_->num_build_rows() > 1 && !BeginSpill()) {
          break;
        }
      }
    }
    if (ctx_->Failed()) return;
    if (!parts_.spilled()) {
      ChargeMem(buffered);
      state_->Finalize(LeftKeyType(), RightKeyType());
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

  /// Fills `probe_` with the next probe batch: from the probe child in
  /// memory; once spilled, from the current probe partition file, loading
  /// the next partition pair whenever one is exhausted. A spilled probe
  /// batch never spans partitions, since it is probed against the one
  /// loaded partition. False at the end.
  bool NextProbeBatch() {
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

  /// Widths and the combined output column map, derived from the plan's
  /// children so the probe-only variant (no right executor) agrees exactly
  /// with the self-building one.
  void InitShape() {
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

  /// Probes one row: collects its matching build rows into `matches_`
  /// (emitted by NextBatchImpl as combined rows for inner, cross and
  /// matched left outer joins) and emits at most one row itself — the
  /// null-padded row of an unmatched left outer probe, or the left row of
  /// a semi/anti join.
  void ProbeRow(uint32_t prow, RowBatch* out) {
    matches_.clear();
    match_pos_ = 0;
    match_prow_ = prow;
    const Value& key = probe_.At(lk_, prow);
    if (!key.is_null()) {
      if (plan_->predicate && residual_prog_ != nullptr) {
        // Vectorized residual: gather the candidate matches into a scratch
        // batch (only the columns the program reads) and filter them in
        // one program run instead of one tree-walk per match.
        candidates_.clear();
        state_->ForEachMatch(key, [&](size_t b) { candidates_.push_back(b); });
        FilterCandidates(prow);
      } else {
        state_->ForEachMatch(key, [&](size_t b) {
          if (plan_->predicate && !ResidualPass(prow, b)) return;
          matches_.push_back(b);
        });
      }
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
  /// `matches_` (in candidate order, matching the interpreted path).
  void FilterCandidates(uint32_t prow) {
    const size_t m = candidates_.size();
    if (m == 0) return;
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
        for (size_t k = 0; k < m; ++k) col[k] = build[candidates_[k]];
      }
    }
    scratch_.SetIdentitySelection(m);
    residual_prog_->FilterBatch(&scratch_, &expr_state_);
    for (uint32_t k : scratch_.selection()) {
      matches_.push_back(candidates_[k]);
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
    ++ctx_->stats.rows_joined;
  }

  void AppendNullPadded(uint32_t prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(probe_.At(c, prow));
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(left_width_ + c).push_back(Value::Null());
    }
    out->CommitRow();
    ++ctx_->stats.rows_joined;
  }

  void AppendLeft(uint32_t prow, RowBatch* out) {
    for (size_t c = 0; c < left_width_; ++c) {
      out->column(c).push_back(probe_.At(c, prow));
    }
    out->CommitRow();
    ++ctx_->stats.rows_joined;
  }

  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;  ///< Null in the probe-only variant.
  /// The build side being probed: the whole build in memory, or once
  /// spilled the loaded partition (null between partitions).
  std::shared_ptr<JoinBuildState> state_;
  size_t rk_ = 0;  ///< Build key position in the right child's layout.
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

}  // namespace

std::unique_ptr<Executor> NewBatchScanExec(const PhysicalPlan* plan,
                                           ExecContext* ctx) {
  return std::make_unique<BatchScanExec>(plan, ctx);
}

std::unique_ptr<Executor> NewBatchFilterExec(const PhysicalPlan* plan,
                                             ExecContext* ctx,
                                             std::unique_ptr<Executor> child) {
  return std::make_unique<BatchFilterExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewBatchProjectExec(const PhysicalPlan* plan,
                                              ExecContext* ctx,
                                              std::unique_ptr<Executor> child) {
  return std::make_unique<BatchProjectExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewBatchHashJoinExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::unique_ptr<Executor> left, std::unique_ptr<Executor> right) {
  return std::make_unique<BatchHashJoinExec>(plan, ctx, std::move(left),
                                             std::move(right));
}

std::unique_ptr<Executor> NewMorselScanExec(const PhysicalPlan* plan,
                                            ExecContext* ctx,
                                            MorselSource* morsels) {
  return std::make_unique<BatchScanExec>(plan, ctx, morsels);
}

std::unique_ptr<Executor> NewBatchHashProbeExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::unique_ptr<Executor> left, std::shared_ptr<JoinBuildState> state) {
  return std::make_unique<BatchHashJoinExec>(plan, ctx, std::move(left),
                                             std::move(state));
}

}  // namespace qopt::exec::internal
