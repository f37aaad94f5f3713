"""SHA-256 pins of every linear map built from a closed formula.

Each structure map below is evaluated on basis elements (coactions of
coactions, theta, nu, mu, Gamma, the induced coactions, the twisted
coproducts, the YD translations).  The digests were recorded from the
maps' ``serialize.map_to_json`` documents; a change in how the maps are
built must leave every one bit for bit the same.

``PYTHONPATH=src python tests/test_map_pins.py`` prints the current
digests in the form of ``PINS``.
"""

import hashlib
import json

import pytest

from quasihopf.actions import (as_module_over_tensor, bar_construction,
                               tensor_bimodule, trivial_left_action)
from quasihopf.coactions import (bicomodule_tensor_with_algebra,
                                 lambda12_structures, regular_left,
                                 tensor_bicomodule, two_sided_from_bicomodule)
from quasihopf.isomaps import (gamma_map, iso_mu, iso_nu, iso_smash_twist,
                               iso_theta, iso_two_sided_twist,
                               twist_comodule_by_U)
from quasihopf.products import (_slot_embedding, gen_two_sided_crossed,
                                induced_costructures, left_quasi_smash,
                                quasi_smash, right_smash, smash)
from quasihopf.quasihopf import tensor_qh
from quasihopf.serialize import map_to_json
from quasihopf.ydrep import (module_to_yd, regular_module, yd_product,
                             yd_to_module)

from conftest import entry, right_regular

# the entries whose digests PINS holds
ENTRIES = ["H2", "FpZn(5,2)", "Sweedler4"]


def digest(lm) -> str:
    return hashlib.sha256(json.dumps(map_to_json(lm)).encode()).hexdigest()


def formula_maps(name: str) -> dict:
    """{label: LinMap} for every formula-built map on the corpus entry."""
    st = entry(name)
    Hq, Am, Ab, Du, C = (st["H"], st["module"], st["bicomodule"],
                         st["dual"], st["coalgebra"])
    Bm = right_regular(Hq)
    dt = Hq.drinfeld_twist()
    out = {"adjoint-action": Am.action,
           "trivial-left": trivial_left_action(Hq, Hq.H),
           "trivial-right": Bm.action}
    for op, cop in ((True, False), (False, True), (True, True)):
        V = Hq.variant(op=op, cop=cop)
        out[f"variant{int(op)}{int(cop)}-Delta"] = V.Delta
        out[f"variant{int(op)}{int(cop)}-S"] = V.S
    out["gauge-twist-Delta"] = Hq.gauge_twist(dt.f, FInv=dt.f_inv).Delta
    K = tensor_qh(Hq, Hq.variant(op=True))
    for label in ("Delta", "counit", "S", "SInv"):
        out[f"tensor-qh-{label}"] = getattr(K, label)
    oc = Ab.opcop()
    out["opcop-lam"], out["opcop-rho"] = oc.lam, oc.rho
    T = tensor_bicomodule(Ab.right, Ab.left, check=False)
    out["tensor-bicomodule-lam"], out["tensor-bicomodule-rho"] = T.lam, T.rho
    TC = bicomodule_tensor_with_algebra(Ab, Hq.H)
    out["tensor-with-algebra-lam"] = TC.lam
    out["tensor-with-algebra-rho"] = TC.rho
    dl = two_sided_from_bicomodule(Ab, "l", check=False)
    out["two-sided-l-delta"] = dl.delta
    out["two-sided-r-delta"] = two_sided_from_bicomodule(Ab, "r",
                                                         check=False).delta
    A1, A2, K = lambda12_structures(Ab, check=False)
    out["lambda1"], out["lambda2"] = A1.lam, A2.lam
    out["as-module-over-tensor"] = as_module_over_tensor(Du, K,
                                                         check=False).action
    TB = tensor_bimodule(Am, Bm)
    out["tensor-bimodule-left"], out["tensor-bimodule-right"] = \
        TB.left, TB.right
    out["bar-action"] = bar_construction(Am).action
    out["quasi-smash-action"] = quasi_smash(Ab, Du, check=False).action
    out["left-quasi-smash-action"] = left_quasi_smash(Du, Ab,
                                                      check=False).action
    out["induced-smash-rho"] = induced_costructures(
        smash(Am, check=False), check=False).rho
    out["induced-right-smash-lam"] = induced_costructures(
        right_smash(Bm, check=False), check=False).lam
    gtc = gen_two_sided_crossed(Ab, Du, Ab, check=False)
    co = induced_costructures(gtc, check=False)
    out["induced-crossed-lam"], out["induced-crossed-rho"] = co.lam, co.rho
    units = [Ab.unit_elt(), Du.unit_elt(), Ab.unit_elt()]
    out["slot-embedding"] = _slot_embedding(Hq.field, gtc.dims, units, 1)
    th = iso_theta(Du, dl)
    out["theta"], out["theta-inverse"] = th.f, th.inverse
    nu = iso_nu(Ab, Du, Ab)
    out["nu"], out["nu-inverse"] = nu.f, nu.inverse
    mu = iso_mu(Am, Bm, Ab)
    out["mu"], out["mu-inverse"] = mu.f, mu.inverse
    out["gamma"] = gamma_map(Du, Ab, check=False)
    Bco = regular_left(Hq, check=False)
    out["twist-comodule-lam"] = twist_comodule_by_U(Bco, dt.f, dt.f_inv).lam
    tw = iso_smash_twist(Am, Bco, dt.f)
    out["smash-twist"], out["smash-twist-inverse"] = tw.f, tw.inverse
    ts = iso_two_sided_twist(Am, Bm, dt.f)
    out["two-sided-smash-twist"] = ts.f
    out["two-sided-smash-twist-inverse"] = ts.inverse
    _, prod = yd_product(Ab, C)
    yd = module_to_yd(regular_module(prod.result), Ab, C, check=False)
    out["module-to-yd-act"], out["module-to-yd-coact"] = yd.act, yd.coact
    out["yd-to-module-act"] = yd_to_module(yd, prod).act
    return out


PINS = {
    'H2': {
        'adjoint-action':
            '3798b2dc0aea14b89741cc6a9a07774831acc22d959d58e9b200370a697a7a26',
        'trivial-left':
            '3798b2dc0aea14b89741cc6a9a07774831acc22d959d58e9b200370a697a7a26',
        'trivial-right':
            '8085cbf033d58c567086e08cb28a1d0e6bcbdd2c1dddfe1c960b7ea49ee724e5',
        'variant10-Delta':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'variant10-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'variant01-Delta':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'variant01-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'variant11-Delta':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'variant11-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'gauge-twist-Delta':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'tensor-qh-Delta':
            '28f0b61b359ae0eb2d0185e2d57e1e3140a005c7515dfb015ebc5f89bf966bb2',
        'tensor-qh-counit':
            '51b72882870f31701c3d5626cd40d270aab8b75c5d3ca6fb7f85f7f24ceab320',
        'tensor-qh-S':
            '6ad6bb43838301a81fc55bb5c0fb5c47f3dae561c4f8933cc09a9f530ce8c5c9',
        'tensor-qh-SInv':
            '6ad6bb43838301a81fc55bb5c0fb5c47f3dae561c4f8933cc09a9f530ce8c5c9',
        'opcop-lam':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'opcop-rho':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'tensor-bicomodule-lam':
            'cbe2bd10f26e0d184b8e52faa8a1bf3ea118c943f663e774b35d7dabea7ee494',
        'tensor-bicomodule-rho':
            '7f597d34567c82abbcedfcc3757792cb23e61b28954377f2e25f468415002f92',
        'tensor-with-algebra-lam':
            '35b2825ef3a4551643f220b13ce7e8597aaf66676ae7dc541ee1f2e080a0fd04',
        'tensor-with-algebra-rho':
            '7f597d34567c82abbcedfcc3757792cb23e61b28954377f2e25f468415002f92',
        'two-sided-l-delta':
            'e8e87e06fd09204219ab6dd4810b0e23277aacbc9ba273ea11c7bfb1edb5561b',
        'two-sided-r-delta':
            'e8e87e06fd09204219ab6dd4810b0e23277aacbc9ba273ea11c7bfb1edb5561b',
        'lambda1':
            '6cd8618db4a6c7b2a8dddfb43b0a7f13b12a0a968b8a62b072b1bd1c8ae2ce5f',
        'lambda2':
            '6cd8618db4a6c7b2a8dddfb43b0a7f13b12a0a968b8a62b072b1bd1c8ae2ce5f',
        'as-module-over-tensor':
            '86c4bad6dcd726b99c7d549ff5675316860f103b64d7ef43a57219604828bc97',
        'tensor-bimodule-left':
            '78bb61731d1e38857ebf2228eb84e7bbf505f60f3e550a6f9dda3ccb15ad6d26',
        'tensor-bimodule-right':
            '7e50558b2326f316296acd6e0ccadac1b831273fd9a3099e1a8ea3fd0067d919',
        'bar-action':
            '8085cbf033d58c567086e08cb28a1d0e6bcbdd2c1dddfe1c960b7ea49ee724e5',
        'quasi-smash-action':
            '36df6cba004495884e7c74c09ebc2b30c2b8e8ee847114251f8383283d2f9deb',
        'left-quasi-smash-action':
            '5b3ccde0c0e4db7605a355a3a822199d9496d8bfff6b5950feeb597e7403f47d',
        'induced-smash-rho':
            'd4c8855de7d1acded70704126e2ff186d25d5d89e7d8fd9b200ff49e3868eb0c',
        'induced-right-smash-lam':
            '35b2825ef3a4551643f220b13ce7e8597aaf66676ae7dc541ee1f2e080a0fd04',
        'induced-crossed-lam':
            '9a0e3112aa933785276ec0fe512013331ef5e38bc5014483b4cd853fdb92d75b',
        'induced-crossed-rho':
            'ecce05c067769b85afafed4c03e200870ea52df12902737930c4741c9586b60d',
        'slot-embedding':
            'd190083c67cce344164072b49da63fd510cfe7e5c1662a9257d41a0a2eb111af',
        'theta':
            'b204234f15afcbccd0dbf9e79a1ec6988372db24ea14b77eee5fe6fa795b1f8f',
        'theta-inverse':
            '67d19d6bc39ab08d1d920f83bf699d53d5b912a2e2be7e6abf144c4ce698064a',
        'nu':
            'ad1f37896011bfbcb7db75fb5c896ec6c6a3a3af6fa29e2d4fbdea768601e4d8',
        'nu-inverse':
            'c572a2d5331913e9da87865256afa2718e70056708ea954e4a420f5ed623cf76',
        'mu':
            '306656918f060b7f02d0ef470014f388dd07de6a01b453f4ce1025003b8269e3',
        'mu-inverse':
            '306656918f060b7f02d0ef470014f388dd07de6a01b453f4ce1025003b8269e3',
        'gamma':
            '92d2b3feea0a8bad9d6b87fa34e4caf91f13a9f2dd7bfbe7d9a20eda194fd082',
        'twist-comodule-lam':
            '9cdb5588f0a9d3cbfcd626bc9ffcdd8a1ce1d1c299429f9a5347f97d721a4f6a',
        'smash-twist':
            '132fae92205fc65ecb2375176fd76652871f7962fbd184e44f2c555f6c0b852e',
        'smash-twist-inverse':
            '132fae92205fc65ecb2375176fd76652871f7962fbd184e44f2c555f6c0b852e',
        'two-sided-smash-twist':
            'ca58e677c8bffd23eec56c252fd09fe1eee3dde313bc6b3d526b7bec680a9e47',
        'two-sided-smash-twist-inverse':
            'ca58e677c8bffd23eec56c252fd09fe1eee3dde313bc6b3d526b7bec680a9e47',
        'module-to-yd-act':
            '36df6cba004495884e7c74c09ebc2b30c2b8e8ee847114251f8383283d2f9deb',
        'module-to-yd-coact':
            '372ecd88d5b6554355c80444ad5580fbe09b75e80c1aa2066b3d4957c392076b',
        'yd-to-module-act':
            '7335fe49ebff2e75a38d3c1ab35fb34503d77e6b7bc7d1c7105d5de53f88a010',
    },
    'FpZn(5,2)': {
        'adjoint-action':
            'dd71cf420fc3d9d1997cc48f42e1eae7f5e0bce4fb59718486d4cf7cbb5765f7',
        'trivial-left':
            'dd71cf420fc3d9d1997cc48f42e1eae7f5e0bce4fb59718486d4cf7cbb5765f7',
        'trivial-right':
            '83686f6ea22aa96ddfb703215659864119fc144bfa3727f9dd5b382fd36f444c',
        'variant10-Delta':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'variant10-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'variant01-Delta':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'variant01-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'variant11-Delta':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'variant11-S':
            'd961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b',
        'gauge-twist-Delta':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'tensor-qh-Delta':
            '0177c82b0eb672b8a80c5b0904573b55c94755849b950adfa26f4b1a3affbdc4',
        'tensor-qh-counit':
            '4ccdaf1225994582931a9f4f2272000d95015ff9a706b6bea2a508015b7d6fec',
        'tensor-qh-S':
            '6ad6bb43838301a81fc55bb5c0fb5c47f3dae561c4f8933cc09a9f530ce8c5c9',
        'tensor-qh-SInv':
            '6ad6bb43838301a81fc55bb5c0fb5c47f3dae561c4f8933cc09a9f530ce8c5c9',
        'opcop-lam':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'opcop-rho':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'tensor-bicomodule-lam':
            'a249c4acfb4a7e0b6ff86de6521bd46335689506b0311f92b7889077ac35dc74',
        'tensor-bicomodule-rho':
            '4e982c16983674b9f243b95bde41be6b2d8f0ee5eb1ade108f91c091cc25842d',
        'tensor-with-algebra-lam':
            '5b3ccde0c0e4db7605a355a3a822199d9496d8bfff6b5950feeb597e7403f47d',
        'tensor-with-algebra-rho':
            '4e982c16983674b9f243b95bde41be6b2d8f0ee5eb1ade108f91c091cc25842d',
        'two-sided-l-delta':
            '738c5399b7b8f620a5e25d00aa88231da57b0536943edae9ce088e01ac333b69',
        'two-sided-r-delta':
            '738c5399b7b8f620a5e25d00aa88231da57b0536943edae9ce088e01ac333b69',
        'lambda1':
            '6e2d08f987370ddb98b4cb643dca4d8f37d67ffa71c9be0169ff19afe7d46a29',
        'lambda2':
            '6e2d08f987370ddb98b4cb643dca4d8f37d67ffa71c9be0169ff19afe7d46a29',
        'as-module-over-tensor':
            '525f3c92e75f56e3feba881d0282d0b6354736f251abb3a99da57dfe152b636c',
        'tensor-bimodule-left':
            'b2ebd0157fb47542d9edaae4017fe0e267b6455e52762a27a2184f0a8d678a20',
        'tensor-bimodule-right':
            'bbff99e082459208703abb55b7306991deb57aed01d1f30cc35d2ed34a797b61',
        'bar-action':
            '83686f6ea22aa96ddfb703215659864119fc144bfa3727f9dd5b382fd36f444c',
        'quasi-smash-action':
            'e348da28c58540c51c03ddc89702d066d7a483118b8d211bada896091bac3db7',
        'left-quasi-smash-action':
            '35b2825ef3a4551643f220b13ce7e8597aaf66676ae7dc541ee1f2e080a0fd04',
        'induced-smash-rho':
            '993be60f694515671cbce92207416d69db454ccd910e1f27c249b1c1529aa6c4',
        'induced-right-smash-lam':
            '5b3ccde0c0e4db7605a355a3a822199d9496d8bfff6b5950feeb597e7403f47d',
        'induced-crossed-lam':
            'b34f563f8decdb3fdc5c1ae355422d4236e99e0d640487ae748962c2a9e3b297',
        'induced-crossed-rho':
            '4f4acb8b818d579482393e6ed01788681bb57b4064370bf361465f4aa1ef44a5',
        'slot-embedding':
            '6b34d754f46dc36a1317f6d5d7644c82b5e58df701651050e5c8ad782838b5f3',
        'theta':
            '5299ab331670d1cb867b9217c76b6e9ed761fe0b2c425768d13a82b948f260dd',
        'theta-inverse':
            '6b19f3731090bc46779949c38ab3363d70f8ada433e6fbe664e574bcb022fb98',
        'nu':
            '81c617e3776f10f413074ba24c841ccf08a6e73b6f7fb0b3a4bab94e7a9bf7e3',
        'nu-inverse':
            'ca2c5ae251a79a619344a2902017b770f05c8768e8d5cf2dc4f20bd69a292353',
        'mu':
            '306656918f060b7f02d0ef470014f388dd07de6a01b453f4ce1025003b8269e3',
        'mu-inverse':
            '306656918f060b7f02d0ef470014f388dd07de6a01b453f4ce1025003b8269e3',
        'gamma':
            '403127df5b5b1be42d5dc261e68fe3c34faade3d93afdcf6b323eebce4466a23',
        'twist-comodule-lam':
            'cb89643decaffe8f1e2ad11c4de036bc98bd3c740031cc09d57f7ce13242f68d',
        'smash-twist':
            '132fae92205fc65ecb2375176fd76652871f7962fbd184e44f2c555f6c0b852e',
        'smash-twist-inverse':
            '132fae92205fc65ecb2375176fd76652871f7962fbd184e44f2c555f6c0b852e',
        'two-sided-smash-twist':
            'ca58e677c8bffd23eec56c252fd09fe1eee3dde313bc6b3d526b7bec680a9e47',
        'two-sided-smash-twist-inverse':
            'ca58e677c8bffd23eec56c252fd09fe1eee3dde313bc6b3d526b7bec680a9e47',
        'module-to-yd-act':
            'e348da28c58540c51c03ddc89702d066d7a483118b8d211bada896091bac3db7',
        'module-to-yd-coact':
            '60d412eb0117a23b69dafcdd7ea7ed331abe98cbb7fa2c787bfc0a4b3eadc89e',
        'yd-to-module-act':
            '68050fe66b9073027dfd76a054734ab196b8e94dbd5627fea2ed4dc684dff82c',
    },
    'Sweedler4': {
        'adjoint-action':
            '32a25fc39ba93fa593e01cb4c9561006e9e94233a73404435c10cc01533971d2',
        'trivial-left':
            '8fe88c578f63fe1a10aad074a9e0ff36c1ca6cf281598c063e180dd888bf5ffd',
        'trivial-right':
            '903397d2e8e543cf2c1d97d332d9e6e4eb960c3500adcd4c6bf135e1b92d156c',
        'variant10-Delta':
            '87f7ddd46b6d3580eb1712d09579bd2bc18a79a51d90e974f4f9ac847893d7b7',
        'variant10-S':
            'bde0686e44e38431778367c38089a9c4caf5ccbca0c2b9b6302cbf9e00f24854',
        'variant01-Delta':
            'a0abe3997d355f27cb99e79bf02c3845c385974f809a0c7baefd49368ebf15ec',
        'variant01-S':
            'bde0686e44e38431778367c38089a9c4caf5ccbca0c2b9b6302cbf9e00f24854',
        'variant11-Delta':
            'a0abe3997d355f27cb99e79bf02c3845c385974f809a0c7baefd49368ebf15ec',
        'variant11-S':
            'f96f8ac4a3f19308df40c84dcb1c2b783bd8f2d91e66e67ae14c9fc41757062b',
        'gauge-twist-Delta':
            '87f7ddd46b6d3580eb1712d09579bd2bc18a79a51d90e974f4f9ac847893d7b7',
        'tensor-qh-Delta':
            '60027f8a087b0904e01c1c7ff4f27e8b5e3e1aa125c902184b9060cd97efc7e7',
        'tensor-qh-counit':
            '2a2b987ac809d747eaeb8cd48471b29846c041218f6b492564fdb6563a38b7ca',
        'tensor-qh-S':
            '1b55f041c3974aef590f5a00f6240dafff73a5f5d44527e9fb220c4ef4585cb1',
        'tensor-qh-SInv':
            'e561fd0ba3f78988f86a3d20b319782cb6ab48da0f9c9c3886d3183bf7edafe7',
        'opcop-lam':
            'a0abe3997d355f27cb99e79bf02c3845c385974f809a0c7baefd49368ebf15ec',
        'opcop-rho':
            'a0abe3997d355f27cb99e79bf02c3845c385974f809a0c7baefd49368ebf15ec',
        'tensor-bicomodule-lam':
            '9ac196cb7fec80531565f724991440ef3f7b32659a961329663dbefa47b5e80b',
        'tensor-bicomodule-rho':
            '38d5166f4aeaf0dfe3ab0e0e193b5aee15ee7f581bda4ff9df655ed956110595',
        'tensor-with-algebra-lam':
            'fea533f8907b3841421c0a11fac32524643235243fb52b16480995a62af69de5',
        'tensor-with-algebra-rho':
            '38d5166f4aeaf0dfe3ab0e0e193b5aee15ee7f581bda4ff9df655ed956110595',
        'two-sided-l-delta':
            'd31d6122ae1f06a37d266df7c9f6e17ecdfd61a1a82514daf612d30e92ff7b93',
        'two-sided-r-delta':
            'd31d6122ae1f06a37d266df7c9f6e17ecdfd61a1a82514daf612d30e92ff7b93',
        'lambda1':
            '152a50b982ada1af6eceb6e636a5561da3b91ed83acc950d8f9d3619163f459a',
        'lambda2':
            '152a50b982ada1af6eceb6e636a5561da3b91ed83acc950d8f9d3619163f459a',
        'as-module-over-tensor':
            '734477c153c146bc0c4ea937449a266208eb710ae54e33e1bfb2f894b073b523',
        'tensor-bimodule-left':
            'fe243bed695b8bd313a374c8a3ff052854d6cd0331759d66f87ea35f7177dfc9',
        'tensor-bimodule-right':
            '8264c01eb82eef65664278e12c409a8fecd369c58ae8c18e473090c3e1504030',
        'bar-action':
            '88452250439a88b8c08c744614442f8b32ab5a1b076faf837a6e919bda12a00c',
        'quasi-smash-action':
            'efb6a073585946af5ef358c968c2af10caf67321e33936e8c098d1daede40236',
        'left-quasi-smash-action':
            '65e26e0cff1886f6223cd6e0ed4a031370250fb9f9866abe496253f231d7928f',
        'induced-smash-rho':
            '170f284149d10a332f778ea0fef9ea5540135d76a7e5898ec13200155f364f69',
        'induced-right-smash-lam':
            'fea533f8907b3841421c0a11fac32524643235243fb52b16480995a62af69de5',
        'induced-crossed-lam':
            'a6f54448d75d04d69faa229738b7828b271cf8353f6a24f24f5b38d9bc215be8',
        'induced-crossed-rho':
            '59fafe42a55dfedc12988bf0aea7da736a0e96e3b944263f1e7bdb4e69016bbb',
        'slot-embedding':
            'e2ce1a2975e75e18f5d743cf9d77db06b91c00058faa650408a7d8b4c409f21b',
        'theta':
            'd7d23256853b5f76122aca0813be632ffa3d45793dd4e2b361eb9400e9f7408d',
        'theta-inverse':
            'a684370d48d6e422d3501772f5d85ae8aa46d19988bcf3dbe4548c8d36011b1e',
        'nu':
            'd380c4bf819cc5a1e96a2be32b180b3964891c9cbd4ca07909d11eae42d12bc0',
        'nu-inverse':
            'a13a3abe1c1b41f456bb72dfb6b2f7bdc2319d080bf329fa421cbd5242604509',
        'mu':
            '8a5c1b91b8e921956005a65ffc0bf36f824002ac87031b70d2ac83b0c75f3995',
        'mu-inverse':
            '8a5c1b91b8e921956005a65ffc0bf36f824002ac87031b70d2ac83b0c75f3995',
        'gamma':
            '7f088950b5f7b40bf0c02475929b1b2c1ade4305b3bf95b3669990776ff29f50',
        'twist-comodule-lam':
            '87f7ddd46b6d3580eb1712d09579bd2bc18a79a51d90e974f4f9ac847893d7b7',
        'smash-twist':
            'b67870893765472133806ef1d8d9f2bfe2750fb96f619198780db8a1ea6be14c',
        'smash-twist-inverse':
            'b67870893765472133806ef1d8d9f2bfe2750fb96f619198780db8a1ea6be14c',
        'two-sided-smash-twist':
            '3c6d25ac579c2fbc580b7a962d77503a43db9f82994db3aa8eb25902de771c69',
        'two-sided-smash-twist-inverse':
            '3c6d25ac579c2fbc580b7a962d77503a43db9f82994db3aa8eb25902de771c69',
        'module-to-yd-act':
            'dd87e24d6ebc5d2efc9d65b8609c472153a09017679898d6f8a537f5b060016a',
        'module-to-yd-coact':
            'b98d19e647fd5c894df484da1e0339546e7a21874b8b22febe8aabb1aaa9648b',
        'yd-to-module-act':
            '5fa794444e0489ef9e686c69b217d207d38da43d9f4237e3027d77cfbef93e2c',
    },
}


@pytest.mark.parametrize("name", ENTRIES)
def test_formula_maps_are_pinned(name):
    got = {label: digest(lm) for label, lm in formula_maps(name).items()}
    assert got == PINS[name]


if __name__ == "__main__":
    for name in ENTRIES:
        print(f"    {name!r}: {{")
        for label, lm in formula_maps(name).items():
            print(f"        {label!r}:\n            {digest(lm)!r},")
        print("    },")
