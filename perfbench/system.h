#ifndef SDMS_PERFBENCH_SYSTEM_H_
#define SDMS_PERFBENCH_SYSTEM_H_

// Building, restarting and tearing down the coupled system under test
// in its durable configuration: a database data dir with fsync on
// every commit (after the initial bulk load), the propagation journal,
// and the IRS snapshot dir. Everything goes through the system's
// public API.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "coupling/coupling.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "server/shard_service.h"
#include "sgml/corpus/generator.h"

namespace sdms::perfbench {

/// The one IRS collection every workload queries: PARA elements with
/// their subtree text, scored by the inference-network model.
inline constexpr char kCollection[] = "paras";
inline constexpr char kSpecQuery[] = "ACCESS p FROM p IN PARA";

struct SystemOptions {
  /// Root of the durable files: db/, irs/, journal.wal.
  std::string dir;
  uint32_t shards = 1;
  /// Serve every shard from a ShardServer over loopback (protocol v3).
  bool remote = false;
  /// Result-buffer byte budget of the collection.
  size_t buffer_max_bytes = 0;
};

/// The shard servers of a remote collection. They outlive a restart of
/// the system that routes to them, as separate processes would.
struct ShardFarm {
  std::vector<std::unique_ptr<server::ShardServer>> servers;
  ~ShardFarm();
};

/// Set-up phases, seconds.
struct SetupTimes {
  double store_s = 0;       // open + schema + StoreDocument per document
  double index_s = 0;       // CreateCollection + indexObjects
  double checkpoint_s = 0;  // initial Database::Checkpoint (incl. PersistIrs)
  double reopen_s = 0;      // reopen from disk with fsync on every commit
  double install_s = 0;     // shard servers + remote install (remote only)
  double total() const {
    return store_s + index_s + checkpoint_s + reopen_s + install_s;
  }
};

/// Cold-open phases of a restart, milliseconds.
struct RestartTimes {
  double irs_load_ms = 0;  // IrsEngine::LoadFrom
  double open_ms = 0;      // Database::Open (snapshot + WAL replay)
  double recover_ms = 0;   // Initialize, RestoreCollections, RecoverPropagation
  double attach_ms = 0;    // remote channels re-attached (remote only)
};

class System {
 public:
  System() = default;
  ~System() { Close(); }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Bulk-loads `corpus` (no fsync per stored document), indexes it,
  /// checkpoints, and reopens the system from disk in the durable
  /// configuration (plus the remote shards when configured).
  Status Build(const SystemOptions& options, const sgml::Corpus& corpus,
               ShardFarm* farm, SetupTimes* times);

  /// Drops every in-memory structure and opens the system again from
  /// the files on disk (no checkpoint first).
  Status Restart(ShardFarm* farm, RestartTimes* times);

  /// Destroys coupling, database and IRS engine (in that order).
  void Close();

  const SystemOptions& options() const { return options_; }
  oodb::Database& db() { return *db_; }
  irs::IrsEngine& engine() { return *engine_; }
  coupling::Coupling& coupling() { return *coupling_; }
  coupling::Collection& collection() { return *coll_; }
  /// MMFDOC roots in corpus order (set by Build).
  const std::vector<Oid>& roots() const { return roots_; }

  std::string db_dir() const { return options_.dir + "/db"; }
  std::string irs_dir() const { return options_.dir + "/irs"; }
  std::string journal_path() const { return options_.dir + "/journal.wal"; }

 private:
  coupling::CouplingOptions MakeCouplingOptions() const;
  Status OpenDatabase(bool sync_commits);
  /// Coupling over db_/engine_, with the MMF element classes.
  Status InitCoupling();
  Status AttachRemote(ShardFarm* farm);

  SystemOptions options_;
  std::unique_ptr<irs::IrsEngine> engine_;
  std::unique_ptr<oodb::Database> db_;
  std::unique_ptr<coupling::Coupling> coupling_;
  coupling::Collection* coll_ = nullptr;
  std::vector<Oid> roots_;
};

/// Element OIDs of one stored document, by walking the database tree.
struct StoredDoc {
  Oid root;
  std::vector<Oid> sections;
  /// PARA OIDs in document order (all sections).
  std::vector<Oid> paras;
};
StatusOr<StoredDoc> WalkDocument(coupling::Coupling& c, Oid root);

}  // namespace sdms::perfbench

#endif  // SDMS_PERFBENCH_SYSTEM_H_
