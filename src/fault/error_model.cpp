#include "fault/error_model.hpp"

#include <utility>

#include "util/error.hpp"

namespace ecgrid::fault {

const char* toString(ChannelErrorKind kind) {
  switch (kind) {
    case ChannelErrorKind::kNone:
      return "none";
    case ChannelErrorKind::kIid:
      return "iid";
    case ChannelErrorKind::kGilbertElliott:
      return "gilbert-elliott";
  }
  return "?";
}

double gilbertElliottPGoodToBad(double targetLoss, double pBadToGood) {
  ECGRID_REQUIRE(targetLoss >= 0.0 && targetLoss < 1.0,
                 "target loss must be in [0, 1)");
  ECGRID_REQUIRE(pBadToGood > 0.0 && pBadToGood <= 1.0,
                 "pBadToGood must be in (0, 1]");
  // πB = pGB/(pGB+pBG) = targetLoss  ⇒  pGB = pBG·L/(1−L).
  return pBadToGood * targetLoss / (1.0 - targetLoss);
}

IidLossModel::IidLossModel(double lossProbability, sim::RngStream rng)
    : lossProbability_(lossProbability), rng_(std::move(rng)) {
  ECGRID_REQUIRE(lossProbability >= 0.0 && lossProbability <= 1.0,
                 "loss probability out of range");
}

bool IidLossModel::dropDelivery(net::NodeId /*sender*/,
                                net::NodeId /*receiver*/) {
  return rng_.chance(lossProbability_);
}

GilbertElliottModel::GilbertElliottModel(const ChannelFault& params,
                                         sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  ECGRID_REQUIRE(params.pGoodToBad >= 0.0 && params.pGoodToBad <= 1.0,
                 "pGoodToBad out of range");
  ECGRID_REQUIRE(params.pBadToGood > 0.0 && params.pBadToGood <= 1.0,
                 "pBadToGood must be in (0, 1]");
  ECGRID_REQUIRE(params.lossGood >= 0.0 && params.lossGood <= 1.0,
                 "lossGood out of range");
  ECGRID_REQUIRE(params.lossBad >= 0.0 && params.lossBad <= 1.0,
                 "lossBad out of range");
}

bool GilbertElliottModel::dropDelivery(net::NodeId /*sender*/,
                                       net::NodeId receiver) {
  bool& bad = inBadState_[receiver];  // chains start Good
  bool drop = rng_.chance(bad ? params_.lossBad : params_.lossGood);
  bad = bad ? !rng_.chance(params_.pBadToGood) : rng_.chance(params_.pGoodToBad);
  return drop;
}

double GilbertElliottModel::stationaryLoss() const {
  double denom = params_.pGoodToBad + params_.pBadToGood;
  if (denom <= 0.0) return params_.lossGood;  // chain never leaves Good
  double piBad = params_.pGoodToBad / denom;
  return piBad * params_.lossBad + (1.0 - piBad) * params_.lossGood;
}

}  // namespace ecgrid::fault
