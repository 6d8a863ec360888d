#ifndef WSQ_BACKEND_EVENTSIM_BACKEND_H_
#define WSQ_BACKEND_EVENTSIM_BACKEND_H_

#include <vector>

#include "wsq/backend/query_backend.h"
#include "wsq/control/controller_factory.h"
#include "wsq/eventsim/event_sim.h"

namespace wsq {

/// A concurrent client sharing the timeline with the tracked query; each
/// run builds it a fresh controller from its factory.
struct BackgroundClientSpec {
  ControllerFactoryFn make_controller;
  int64_t dataset_tuples = 0;
  /// When the client issues its first request (ms on the shared
  /// timeline).
  double start_time_ms = 0.0;
};

/// QueryBackend over the event-driven processor-sharing simulation: the
/// controller under test drives one *tracked* client session whose
/// per-block trace becomes the RunTrace, while optional background
/// clients genuinely contend for the server on the shared timeline
/// (paper Fig. 2's arrival/departure transients).
class EventSimBackend final : public QueryBackend {
 public:
  /// `dataset_tuples` is the tracked client's query size;
  /// `start_time_ms` staggers it against the background clients.
  EventSimBackend(const EventSimConfig& config, int64_t dataset_tuples,
                  double start_time_ms = 0.0,
                  std::vector<BackgroundClientSpec> background = {});

  std::string name() const override { return "eventsim"; }

  /// Clone copies the config and client specs; every run builds its own
  /// event timeline and background controllers, so clones are safe on
  /// concurrent lanes.
  std::unique_ptr<QueryBackend> Clone() const override;

  Result<RunTrace> RunQuery(Controller* controller,
                            const RunSpec& spec) override;

  const EventSimConfig& config() const { return config_; }

 private:
  EventSimConfig config_;
  int64_t dataset_tuples_;
  double start_time_ms_;
  std::vector<BackgroundClientSpec> background_;
};

}  // namespace wsq

#endif  // WSQ_BACKEND_EVENTSIM_BACKEND_H_
