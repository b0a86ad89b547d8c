"""numpy's ``Generator(PCG64(seed)).normal`` stream, bit for bit, in plain Python.

``lift_brownian`` draws its Gaussian increments here, so a Brownian lift
never imports numpy; ``brownian_pair_statistics`` keeps numpy's vectorised
reader of the same stream, and the tests pin the two readers to the same
bits with numpy as the reference.  The stream has three parts.

* Seeding: numpy's ``SeedSequence`` hash of the seed's 32-bit words (least
  significant first, [0] for 0) into a pool of 4, read out by
  ``generate_state(4, uint64)`` as the 128-bit state and stream
  (``MULT_B`` is 0x58f38ded, the value in numpy's ``bit_generator``, not
  the 0x58f35a4b of O'Neill's ``seed_seq_fe``).
* PCG64: O'Neill's PCG XSL-RR 128/64 (HMC-CS-2014-0905, 2014).  Seeding
  runs ``srandom``: state 0, inc = stream·2 + 1, a step, add the seed
  state, a step; each output steps the 128-bit LCG once and returns the
  xor of its halves rotated right by its top 6 bits.
* The normal: numpy's ``random_standard_normal``, a 256-layer ziggurat
  (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000).  One raw output gives
  the layer (its low 8 bits), the sign (bit 8) and a 52-bit magnitude; the
  base layer falls back to the tail by ``log1p``, another layer to the
  wedge test by ``exp``; a uniform double is (raw >> 11)·2⁻⁵³.  A draw of
  ``normal(0.0, sd)`` is 0.0 + sd·z.

The ziggurat tables ``fi_double``, ``wi_double`` and ``ki_double`` are not
reproduced by the textbook recurrence, so ``_TABLES`` holds numpy's own:
the 6 144 contiguous bytes of ``.rodata`` that the three fill in the
archive member ``src_distributions_distributions.c.o`` of numpy 2.4.6's
static library ``numpy/random/lib/libnpyrandom.a``, where they are local
symbols.  To re-check them against another numpy, offline::

    lib=$(python -c "import numpy, os; print(os.path.dirname(numpy.__file__))")
    ar x "$lib/random/lib/libnpyrandom.a" src_distributions_distributions.c.o
    nm src_distributions_distributions.c.o | grep -E ' (fi|wi|ki)_double$'
    #   0000000000003000 r fi_double, 0000000000003800 r wi_double,
    #   0000000000004000 r ki_double: offsets in .rodata, 2 048 bytes each
    readelf -S -W src_distributions_distributions.c.o | grep ' .rodata '
    #   [ 5] .rodata  PROGBITS  0000000000000000 004480 004800 ...: the
    #   section's offset in the file is 0x4480
    tail -c +$((0x4480 + 0x3000 + 1)) src_distributions_distributions.c.o \\
        | head -c 6144 | base64 -w 96

The output must be the text of ``_TABLES`` (the tests pin the SHA-256 of
its bytes); where the offsets differ, put the new ones in the ``tail`` line.
"""

from __future__ import annotations

import binascii
import operator
import struct
from math import exp, log1p
from typing import Iterator

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the 128-bit LCG multiplier

# fi_double, wi_double, ki_double: 256 little-endian doubles, doubles, uint64s
_TABLES = binascii.a2b_base64("""
AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/rLaeoM73sP394qc5eauw/
6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQlevH+teo/4clQ1Yt06j8Pr/X9qjTqP9gfZe479uk/
gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3ExvfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth6D9uz1YPBSzoP8viIEvt9uc/
WGicd5rC5z/VsKA8A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/KjtRXveW5j8j45IqJ2fmPxgMVZjiN+Y/
ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9VsZVq1JuU/Z7Yg6MT65D/ATklPP8/kP3hS3HIhpOQ/
ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8QPtLjPw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/
7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/Fc2TjvKT4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/
EdE/V3Gx4T9QPJtwm4zhP9o5hhIFaOE/nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4FdmR12keA/
NjzwzH1u4D8uP6avvEvgPyqCi+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ovyylC3z+Vj35xGv/eP1QfvSBuvN4/
xcNOaiN63j+Fm1/qODjePwk6dket9t0/sVYLMn+13T8z3iZkrXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/
uCwdb9I13D8XamF8EffbP5FtcdakuNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/
PoRGOZIM2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/YP9kNqn9PNdg/
Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/Id6IrYan1j/iyyUawW/WPxXlezc9ONY/
yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/tO1PCbybVP5Jtv45q8NQ/opwQV6O61D/Uaq2fGYXUP/4kw+/MT9Q/
GXo10bwa1D/b0o7Q6OXTP65D8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/
id4XH4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fuNLvHS9E/IyTPTxMa0T/ECYdZlejQP9pCsohNt9A/
NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriMEIjPP9KY6Wz+J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/
CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2SzD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/
fiYZC35ryj89fi0y9xDKP1r+0r/Stsk/J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/
prV6nHxKxz8WR5Z+YPPGP1zyIT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/BH+OtjfDEPy3O9WwMnMQ/
1XUDwulHxD+uMWmLJfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoHehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/
Yy2o5UBjwT+5bqIdyxLBP7oJUj2zwsA/hb+4S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/
5ZG9uas4vT8KdDtJX568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Iov50ce7g/
1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8tD+GmiYj7+2zP3A+2eTFX7M/
ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSwP5fkMJ6XG7A/NW5sKywmrz+BUbJH1RauP2Lxrf4uCa0/
LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/1K3yPLLapT9dJxEOXdukP8vumM7y3aM/
l/Q96Hzioj+8ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJzYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/C/TapZY/
ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08njaSLP3ikjQ0EQYg/4M8aQpbrhD+SL5UpkqWBPzdo7Phg4Xw/
XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWmVD952RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8
vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI8
9ZFXwD88ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8
pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8
Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8
SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88
rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8
awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8
n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI8
10huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8
dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8
YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8
OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8
VPhhMcTztjzraIv3Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8
595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8
J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8
EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8
NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLALmuT07s8
g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+qvDyQ1jvH4cm8PDfgaDBe6bw8
bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb48
9kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88
aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8
frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8
QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8
Oa7k++vhwTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8
l9uWMdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8
dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8
G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8
jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPGrvJYA98w4A
AAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZDwAYy/9h7TcPAFwlYZVGTw8A
lqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQTccklw8ACfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A
3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5mI+y3DwAO5aHp7LoPAO0LBJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8A
Me56l6LGDwCkliipesgPAIXeS14yyg8AGiMC6czLDwDEOfgSTc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy0g8A
HsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInWDwAy6MipbtcPAOgIe1RI2A8AjCytixfZDwDSracH3dkPAIxeEHCZ2g8A
IC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8AnXIYgTvdDwCQLzSI0t0PAGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A
8iS85G/gDwBYoiXC5uAPAEy4KDxZ4Q8AmT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8A
f62e6RDkDwA0d9RGZ+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjVxnV75g8A
qhEeZr7mDwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBTkCjoDwA6FzX7XugPAGQIhNyT6A8A
vM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm8Zwy6g8A
LJUyq1rqDwAadNWmgeoPAPAc3pen6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGuVusPAPqE4vR26w8A
FCDmX5brDwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELsDwCW8Sn9W+wPAPTubEB17A8A
tAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8AKIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8A
blit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDILKQGlO0PAAS3hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A
04o8gd/tDwCAmZAP7e0PABTUDx767Q8AxEsSrgbuDwAGWtnAEu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A
9IIp7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLuDwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvPfu4PALJKSNKE7g8A
Q2O2YIruDwBRyMx6j+4PANolfiCU7g8A6imoUZjuDwBcSBMOnO4PAPRzclWf7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A
+tZu16fuDwAK+gTOqO4PADsz6Eup7g8AEGQpUKnuDwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8A
JCA1Lp/uDwAurya8m+4PAOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8A
Xr2pw2zuDwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAFgq1iJO4PAFo8uF4X7g8A
RxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQsBGS57Q8AyTjp3KbtDwCN6Tdyk+0PADaoOBx/7Q8A
K8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUIt+wPAMEwEraY7A8A
eKkNCnnsDwD+MQ/1V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9ZrrDwBChcnhb+sPAJ4frdNC6w8A
Sy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8AO1Yv1sXpDwCkR6k7hOkPAChHHUc/6Q8A
1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cPAKVqH3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8A
Qvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8ANx79v/njDwCcse41XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8A
qnErsILfDwCq/n7Fh94PAP07xgl13Q8AE78p5UbcDwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw4kkB1A8A
rMe0p6HRDwCeH3YE4s4PALIRXtioyw8AIi3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQAxAa2DwB0KCpYQKwPAJhFAR6Xng8A
/B2kSPqJDwAsMPD3xWYPAEocM0taGg8A
""")
_FI = struct.unpack_from("<256d", _TABLES, 0)
_WI = struct.unpack_from("<256d", _TABLES, 2048)
_KI = struct.unpack_from("<256Q", _TABLES, 4096)
_R = 3.6541528853610087963519472518  # where the tail begins
_MINUS_INV_R = -0.27366123732975827203338247596
_U53 = 2.0**-53


def _seeded(seed: int) -> tuple[int, int]:
    """``(state, inc)`` of numpy's ``PCG64(seed)`` for a non-negative
    integer seed, ``bool`` and numpy integers included.  As numpy, refuse a
    negative seed with ValueError and a float or a string with TypeError;
    refuse also None and sequences, which numpy reads as fresh or pooled
    entropy, since a lift is replayed from its integer seed."""
    try:
        n = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}") from None
    if n < 0:
        raise ValueError(f"seed must be >= 0, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return out ^ out >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):  # generate_state(4, uint64), as 32-bit words
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    # each pair of words reads little-endian as one 64-bit word
    initstate = words[0] << 64 | words[1] << 96 | words[2] | words[3] << 32
    initseq = words[4] << 64 | words[5] << 96 | words[6] | words[7] << 32
    inc = (initseq << 1 | 1) & _M128
    return ((inc + initstate) * _MULT + inc) & _M128, inc


def _stream(seed: int) -> Iterator[int]:
    """The raw 64-bit outputs of numpy's ``PCG64(seed)``, endlessly."""
    state, inc = _seeded(seed)
    while True:
        state = (state * _MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (x >> rot | x << 64 - rot) & _M64


def _normals(seed: int, count: int, sd: float) -> list[float]:
    """The first ``count`` values of numpy's
    ``Generator(PCG64(seed)).normal(0.0, sd, count)``, bit for bit."""
    raw = _stream(seed).__next__
    fi, wi, ki = _FI, _WI, _KI
    out = []
    for _ in range(count):
        while True:
            r = raw()
            layer = r & 0xFF
            rabs = r >> 9 & 0xFFFFFFFFFFFFF
            z = -(rabs * wi[layer]) if r & 0x100 else rabs * wi[layer]
            if rabs < ki[layer]:
                break
            if layer == 0:  # the tail beyond _R, by Marsaglia's exponential test
                while True:
                    xx = _MINUS_INV_R * log1p(-((raw() >> 11) * _U53))
                    yy = -log1p(-((raw() >> 11) * _U53))
                    if yy + yy > xx * xx:
                        break
                z = -(_R + xx) if rabs >> 8 & 1 else _R + xx
                break
            u = (raw() >> 11) * _U53
            if (fi[layer - 1] - fi[layer]) * u + fi[layer] < exp(-0.5 * z * z):
                break
        out.append(0.0 + sd * z)
    return out
