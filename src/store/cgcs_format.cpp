#include "store/cgcs_format.hpp"

namespace cgc::store {

std::string_view section_name(SectionId s) {
  switch (s) {
    case SectionId::kJobs:
      return "jobs";
    case SectionId::kTasks:
      return "tasks";
    case SectionId::kEvents:
      return "events";
    case SectionId::kMachines:
      return "machines";
    case SectionId::kHostLoad:
      return "host_load";
  }
  return "?";
}

namespace {

using K = ValueKind;

constexpr ColumnDef kJobColumns[] = {
    {ColumnId::kJobId, K::kI64},          {ColumnId::kUserId, K::kI64},
    {ColumnId::kPriority, K::kU8},        {ColumnId::kSubmitTime, K::kI64},
    {ColumnId::kEndTime, K::kI64},        {ColumnId::kNumTasks, K::kI64},
    {ColumnId::kCpuParallelism, K::kF32}, {ColumnId::kMemUsage, K::kF32},
};
constexpr ColumnDef kTaskColumns[] = {
    {ColumnId::kJobId, K::kI64},        {ColumnId::kTaskIndex, K::kI64},
    {ColumnId::kPriority, K::kU8},      {ColumnId::kSubmitTime, K::kI64},
    {ColumnId::kScheduleTime, K::kI64}, {ColumnId::kEndTime, K::kI64},
    {ColumnId::kEndEvent, K::kU8},      {ColumnId::kMachineId, K::kI64},
    {ColumnId::kResubmits, K::kI64},    {ColumnId::kCpuRequest, K::kF32},
    {ColumnId::kMemRequest, K::kF32},   {ColumnId::kCpuUsage, K::kF32},
    {ColumnId::kMemUsage, K::kF32},
};
constexpr ColumnDef kEventColumns[] = {
    {ColumnId::kTime, K::kI64},      {ColumnId::kJobId, K::kI64},
    {ColumnId::kTaskIndex, K::kI64}, {ColumnId::kMachineId, K::kI64},
    {ColumnId::kEventType, K::kU8},  {ColumnId::kPriority, K::kU8},
};
constexpr ColumnDef kMachineColumns[] = {
    {ColumnId::kMachineId, K::kI64},
    {ColumnId::kCpuCapacity, K::kF32},
    {ColumnId::kMemCapacity, K::kF32},
    {ColumnId::kPageCacheCapacity, K::kF32},
    {ColumnId::kAttributes, K::kU8},
};
constexpr ColumnDef kHostLoadColumns[] = {
    {ColumnId::kCpuLow, K::kF32},      {ColumnId::kCpuMid, K::kF32},
    {ColumnId::kCpuHigh, K::kF32},     {ColumnId::kMemLow, K::kF32},
    {ColumnId::kMemMid, K::kF32},      {ColumnId::kMemHigh, K::kF32},
    {ColumnId::kMemAssigned, K::kF32}, {ColumnId::kPageCache, K::kF32},
    {ColumnId::kRunning, K::kI64},     {ColumnId::kPending, K::kI64},
};

}  // namespace

std::span<const ColumnDef> section_columns(SectionId section) {
  switch (section) {
    case SectionId::kJobs:
      return kJobColumns;
    case SectionId::kTasks:
      return kTaskColumns;
    case SectionId::kEvents:
      return kEventColumns;
    case SectionId::kMachines:
      return kMachineColumns;
    case SectionId::kHostLoad:
      return kHostLoadColumns;
  }
  return {};
}

}  // namespace cgc::store
