#include "anmat/session.h"

#include <algorithm>

namespace anmat {

Session::Session(std::string project_name)
    : project_name_(std::move(project_name)) {
  options_.table_name = project_name_;
}

Status Session::LoadCsvFile(const std::string& path,
                            const CsvOptions& options) {
  ANMAT_ASSIGN_OR_RETURN(Relation rel, ReadCsvFile(path, options));
  return LoadRelation(std::move(rel));
}

Status Session::LoadCsvString(std::string_view text,
                              const CsvOptions& options) {
  ANMAT_ASSIGN_OR_RETURN(Relation rel, ReadCsvString(text, options));
  return LoadRelation(std::move(rel));
}

Status Session::LoadRelation(Relation relation) {
  relation_ = std::move(relation);
  loaded_ = true;
  discovered_ran_ = false;
  profiles_.clear();
  discovered_.clear();
  rejected_indices_.clear();
  confirmed_.clear();
  detection_ = DetectionResult{};
  repair_result_ = RepairResult{};
  return Status::OK();
}

Status Session::Profile() {
  if (!loaded_) return Status::InvalidArgument("no dataset loaded");
  profiles_ = engine_.Profile(relation_, options_.profiler);
  return Status::OK();
}

Status Session::Discover() {
  if (!loaded_) return Status::InvalidArgument("no dataset loaded");
  ANMAT_ASSIGN_OR_RETURN(DiscoveryResult result,
                         engine_.Discover(relation_, options_));
  profiles_ = std::move(result.profiles);
  discovered_ = std::move(result.pfds);
  discovered_ran_ = true;
  rejected_indices_.clear();  // new discovery run, new indices
  confirmed_.clear();
  return Status::OK();
}

/// True when `pfd` is already in the applied set.
bool Session::IsConfirmed(const Pfd& pfd) const {
  for (const Pfd& c : confirmed_) {
    if (c == pfd) return true;
  }
  return false;
}

Status Session::Confirm(size_t index) {
  if (!discovered_ran_) {
    return Status::InvalidArgument("run Discover() before confirming");
  }
  if (index >= discovered_.size()) {
    return Status::OutOfRange("no discovered PFD with index " +
                              std::to_string(index));
  }
  rejected_indices_.erase(index);  // explicit confirm overrides a rejection
  if (!IsConfirmed(discovered_[index].pfd)) {
    confirmed_.push_back(discovered_[index].pfd);
  }
  return Status::OK();
}

Status Session::Reject(size_t index) {
  if (!discovered_ran_) {
    return Status::InvalidArgument("run Discover() before rejecting");
  }
  if (index >= discovered_.size()) {
    return Status::OutOfRange("no discovered PFD with index " +
                              std::to_string(index));
  }
  // Rejecting un-applies an earlier Confirm of the same rule: a rejected
  // rule is never applied (rule_store.h's kRejected contract). The index
  // is remembered so a later ConfirmAll() keeps the rejection too.
  rejected_indices_.insert(index);
  const Pfd& pfd = discovered_[index].pfd;
  confirmed_.erase(
      std::remove_if(confirmed_.begin(), confirmed_.end(),
                     [&](const Pfd& c) { return c == pfd; }),
      confirmed_.end());
  return Status::OK();
}

void Session::ConfirmAll() {
  for (size_t i = 0; i < discovered_.size(); ++i) {
    // A rule the user rejected stays rejected under the blanket confirm;
    // only an explicit Confirm(i) overrides a rejection.
    if (rejected_indices_.count(i) > 0) continue;
    if (!IsConfirmed(discovered_[i].pfd)) {
      confirmed_.push_back(discovered_[i].pfd);
    }
  }
}

void Session::ClearConfirmations() { confirmed_.clear(); }

Status Session::Detect() {
  if (!loaded_) return Status::InvalidArgument("no dataset loaded");
  if (confirmed_.empty()) {
    return Status::InvalidArgument(
        "no confirmed PFDs; call ConfirmAll() or Confirm(i) first");
  }
  ANMAT_ASSIGN_OR_RETURN(
      DetectionResult result,
      engine_.Detect(relation_, confirmed_, detector_options_));
  detection_ = std::move(result);
  return Status::OK();
}

Status Session::Repair() {
  if (!loaded_) return Status::InvalidArgument("no dataset loaded");
  if (confirmed_.empty()) {
    return Status::InvalidArgument(
        "no confirmed PFDs; call ConfirmAll() or Confirm(i) first");
  }
  RepairOptions options = repair_options_;
  options.detector = detector_options_;
  ANMAT_ASSIGN_OR_RETURN(RepairResult result,
                         engine_.Repair(&relation_, confirmed_, options));
  repair_result_ = std::move(result);
  // Repair mutated the relation; adopt the fixpoint loop's final
  // verification pass so detection() (and the views rendered from it)
  // describe the repaired data — moved, not copied, so the session holds
  // one violation set (repair_result().final_detection is left empty;
  // read it via detection()).
  detection_ = std::move(repair_result_.final_detection);
  return Status::OK();
}

Result<std::unique_ptr<DetectionStream>> Session::OpenDetectionStream() {
  if (!loaded_) return Status::InvalidArgument("no dataset loaded");
  if (confirmed_.empty()) {
    return Status::InvalidArgument(
        "no confirmed PFDs; call ConfirmAll() or Confirm(i) first");
  }
  ANMAT_ASSIGN_OR_RETURN(std::unique_ptr<DetectionStream> stream,
                         engine_.OpenStream(relation_.schema(), confirmed_,
                                            detector_options_));
  // The session's repair knobs govern streaming repair too: a caller that
  // disabled variable repairs for Repair() gets constant-only cleaning
  // when it turns on the stream's clean-on-ingest mode.
  stream->set_clean_variable_rules(repair_options_.apply_variable_repairs);
  return stream;
}

}  // namespace anmat
