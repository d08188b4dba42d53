#include "system.h"

#include "common/file_util.h"
#include "coupling/remote_shard.h"
#include "irs/collection.h"
#include "sgml/mmf_dtd.h"
#include "util.h"

namespace sdms::perfbench {

ShardFarm::~ShardFarm() {
  for (auto& s : servers) s->Shutdown();
}

coupling::CouplingOptions System::MakeCouplingOptions() const {
  coupling::CouplingOptions o;
  o.exchange_dir = options_.dir + "/exchange";
  o.buffer_max_bytes = options_.buffer_max_bytes;
  o.journal_path = journal_path();
  o.irs_snapshot_dir = irs_dir();
  // No admission limit: the benchmark's clients are the only load.
  o.admission = coupling::AdmissionOptions{};
  return o;
}

Status System::OpenDatabase(bool sync_commits) {
  oodb::Database::Options db_options;
  db_options.data_dir = db_dir();
  db_options.sync_commits = sync_commits;
  SDMS_ASSIGN_OR_RETURN(db_, oodb::Database::Open(db_options));
  return Status::OK();
}

Status System::InitCoupling() {
  coupling_ = std::make_unique<coupling::Coupling>(db_.get(), engine_.get(),
                                                   MakeCouplingOptions());
  SDMS_RETURN_IF_ERROR(coupling_->Initialize());
  SDMS_ASSIGN_OR_RETURN(sgml::Dtd dtd, sgml::LoadMmfDtd());
  return coupling_->RegisterDtdClasses(dtd);
}

Status System::Build(const SystemOptions& options, const sgml::Corpus& corpus,
                     ShardFarm* farm, SetupTimes* times) {
  Close();
  options_ = options;
  SDMS_RETURN_IF_ERROR(MakeDirs(irs_dir()));
  SDMS_RETURN_IF_ERROR(MakeDirs(options_.dir + "/exchange"));

  // Bulk load: no fsync per stored document; the checkpoint below makes
  // the load durable, and the reopen switches to fsync on every commit.
  int64_t t0 = NowMicros();
  engine_ = std::make_unique<irs::IrsEngine>();
  SDMS_RETURN_IF_ERROR(OpenDatabase(/*sync_commits=*/false));
  SDMS_RETURN_IF_ERROR(InitCoupling());
  roots_.clear();
  for (const sgml::Document& doc : corpus.documents) {
    SDMS_ASSIGN_OR_RETURN(Oid root, coupling_->StoreDocument(doc));
    roots_.push_back(root);
  }
  int64_t t1 = NowMicros();
  SDMS_ASSIGN_OR_RETURN(coll_, coupling_->CreateCollection(kCollection));
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * irs_coll,
                        engine_->GetCollection(kCollection));
  SDMS_RETURN_IF_ERROR(irs_coll->SetNumShards(options_.shards));
  SDMS_RETURN_IF_ERROR(
      coll_->IndexObjects(kSpecQuery, coupling::kTextModeSubtree));
  int64_t t2 = NowMicros();
  SDMS_RETURN_IF_ERROR(db_->Checkpoint());
  int64_t t3 = NowMicros();
  RestartTimes rt;
  SDMS_RETURN_IF_ERROR(Restart(farm, &rt));
  times->store_s = (t1 - t0) / 1e6;
  times->index_s = (t2 - t1) / 1e6;
  times->checkpoint_s = (t3 - t2) / 1e6;
  times->install_s = rt.attach_ms / 1e3;
  times->reopen_s = (NowMicros() - t3) / 1e6 - times->install_s;
  return Status::OK();
}

Status System::AttachRemote(ShardFarm* farm) {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * irs_coll,
                        engine_->GetCollection(kCollection));
  for (uint32_t s = 0; s < irs_coll->num_shards(); ++s) {
    if (farm->servers.size() <= s) {
      server::ShardServerOptions so;
      so.collection = kCollection;
      so.shard = s;
      auto srv = std::make_unique<server::ShardServer>(so);
      SDMS_RETURN_IF_ERROR(srv->Start());
      farm->servers.push_back(std::move(srv));
    }
    coupling::RemoteShardOptions ro;
    ro.port = farm->servers[s]->port();
    ro.collection = kCollection;
    ro.shard = s;
    ro.num_shards = static_cast<uint32_t>(irs_coll->num_shards());
    ro.model_name = irs_coll->model().name();
    ro.analyzer = irs_coll->analyzer().options();
    ro.jitter_seed = s + 1;
    SDMS_RETURN_IF_ERROR(coll_->AttachRemoteShard(
        s, std::make_shared<coupling::RemoteShardChannel>(ro)));
  }
  return Status::OK();
}

Status System::Restart(ShardFarm* farm, RestartTimes* times) {
  Close();
  int64_t t0 = NowMicros();
  engine_ = std::make_unique<irs::IrsEngine>();
  SDMS_RETURN_IF_ERROR(engine_->LoadFrom(irs_dir()));
  int64_t t1 = NowMicros();
  SDMS_RETURN_IF_ERROR(OpenDatabase(/*sync_commits=*/true));
  int64_t t2 = NowMicros();
  SDMS_RETURN_IF_ERROR(InitCoupling());
  SDMS_RETURN_IF_ERROR(coupling_->RestoreCollections().status());
  SDMS_RETURN_IF_ERROR(coupling_->RecoverPropagation());
  SDMS_ASSIGN_OR_RETURN(coll_, coupling_->GetCollectionByName(kCollection));
  int64_t t3 = NowMicros();
  if (options_.remote) SDMS_RETURN_IF_ERROR(AttachRemote(farm));
  int64_t t4 = NowMicros();
  times->irs_load_ms = (t1 - t0) / 1e3;
  times->open_ms = (t2 - t1) / 1e3;
  times->recover_ms = (t3 - t2) / 1e3;
  times->attach_ms = (t4 - t3) / 1e3;
  return Status::OK();
}

void System::Close() {
  coll_ = nullptr;
  coupling_.reset();
  db_.reset();
  engine_.reset();
}

StatusOr<StoredDoc> WalkDocument(coupling::Coupling& c, Oid root) {
  StoredDoc out;
  out.root = root;
  SDMS_ASSIGN_OR_RETURN(std::vector<Oid> top, c.ChildrenOf(root));
  for (Oid child : top) {
    SDMS_ASSIGN_OR_RETURN(std::string cls, c.db().ClassOf(child));
    if (cls != "SECTION") continue;
    out.sections.push_back(child);
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> kids, c.ChildrenOf(child));
    for (Oid k : kids) {
      SDMS_ASSIGN_OR_RETURN(std::string kcls, c.db().ClassOf(k));
      if (kcls == "PARA") out.paras.push_back(k);
    }
  }
  return out;
}

}  // namespace sdms::perfbench
