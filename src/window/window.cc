#include "window/window.h"

#include "window/count_window.h"

namespace deco {

WindowSpec WindowSpec::CountTumbling(uint64_t length) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.length = length;
  spec.slide = length;
  return spec;
}

WindowSpec WindowSpec::CountSliding(uint64_t length, uint64_t slide) {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.length = length;
  spec.slide = slide;
  return spec;
}

Status WindowSpec::Validate() const {
  if (length == 0) {
    return Status::InvalidArgument("window length must be positive");
  }
  if (type == WindowType::kSliding) {
    if (slide == 0) {
      return Status::InvalidArgument("slide must be positive");
    }
    if (slide > length) {
      return Status::InvalidArgument(
          "slide must not exceed window length (no gaps between windows)");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Windower>> MakeWindower(const WindowSpec& spec,
                                               const AggregateFunction* func) {
  if (func == nullptr) {
    return Status::InvalidArgument("aggregate function must not be null");
  }
  DECO_RETURN_NOT_OK(spec.Validate());
  if (spec.type == WindowType::kTumbling) {
    return std::unique_ptr<Windower>(new CountTumblingWindower(spec, func));
  }
  return std::unique_ptr<Windower>(new CountSlidingWindower(spec, func));
}

}  // namespace deco
