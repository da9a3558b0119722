"""Parameter-efficient fine-tuning: LoRA, Conv-LoRA, Multi-LoRA, MoE-LoRA
and the MetaLoRA CP / Tensor-Ring formats (the paper's contribution).

The typical flow is::

    result = attach(backbone, method="meta_tr", rank=4, rng=rng)
    model = MetaLoRAModel(backbone, extractor, adapters=result)  # meta variants
    ... train adapters ...
    result.merge()    # static methods: bake ΔW in
    result.detach()   # or restore the original layers

Meta variants generate a per-sample seed from input features; static
variants (LoRA / Multi-LoRA) keep fixed adapter weights.  Methods are
looked up in :data:`~repro.peft.api.PEFT_METHODS`.
"""

from repro.peft.base import (
    Adapter,
    get_module,
    iter_adapters,
    merge_adapters,
    set_module,
)
from repro.peft.api import PEFT_METHODS, AttachResult, attach
from repro.peft.lora import LoRALinear
from repro.peft.conv_lora import ConvLoRA
from repro.peft.tt_lora import TTLoRALinear
from repro.peft.bottleneck import BottleneckAdapter
from repro.peft.dora import DoRALinear
from repro.peft.prefix import PrefixTuningAttention
from repro.peft.checkpoint import (
    adapter_state_dict,
    load_adapter,
    load_adapter_state_dict,
    model_digest,
    save_adapter,
    state_digest,
)
from repro.peft.multi_lora import MultiLoRAConv, MultiLoRALinear
from repro.peft.moe_lora import MoELoRALinear
from repro.peft.auto import AdapterPlan, apply_plan, plan_adapters
from repro.peft.meta_cp import MetaLoRACPConv, MetaLoRACPLinear
from repro.peft.meta_tr import MetaLoRATRConv, MetaLoRATRLinear
from repro.peft.meta_model import MetaLoRAModel
from repro.peft.counts import adapter_parameter_table, count_parameters

__all__ = [
    "Adapter",
    "AdapterPlan",
    "AttachResult",
    "PEFT_METHODS",
    "attach",
    "apply_plan",
    "plan_adapters",
    "BottleneckAdapter",
    "ConvLoRA",
    "DoRALinear",
    "LoRALinear",
    "TTLoRALinear",
    "adapter_state_dict",
    "load_adapter",
    "load_adapter_state_dict",
    "model_digest",
    "save_adapter",
    "state_digest",
    "MetaLoRACPConv",
    "MetaLoRACPLinear",
    "MetaLoRAModel",
    "MetaLoRATRConv",
    "MetaLoRATRLinear",
    "MoELoRALinear",
    "MultiLoRAConv",
    "MultiLoRALinear",
    "PrefixTuningAttention",
    "adapter_parameter_table",
    "count_parameters",
    "get_module",
    "iter_adapters",
    "merge_adapters",
    "set_module",
]
